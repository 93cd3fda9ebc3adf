package remote

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
)

// tBatch is one sequenced message of a sender's batch; Notify marks the
// batch's last message, whose arrival the sink reports to that sender.
type tBatch struct {
	Sender int
	N      int
	Notify bool
}

func init() { RegisterType(tBatch{}) }

// batchSizes cycles between batches that fit the credit window, written
// directly by their sender, and batches far past it, which exhaust credit,
// park the link's manager and build an outbox backlog.
var batchSizes = []int{1, 3, 2, 40, 1, 300, 4, 17, 900, 2, 1, 120}

// sendBatches has senders senders each Tell perSender sequenced messages
// over a 4-message credit window to a sink that checks every sender's
// numbers arrive exactly once and in order. Each sender sends in batches;
// before the next one it waits for the sink to see the batch's last message
// and for the window to reopen in full, so the link keeps switching between
// direct writes (idle link, credit in hand), queueing behind a busy writer,
// and credit parks. No delivery order rests on timing: the waits only
// choose which write path the next batch starts on.
func sendBatches(t *testing.T, senders, perSender int) {
	const window = 4
	a, b, _ := twoMemNodes(t, func(c *Config) {
		c.CreditWindow = window
		c.OutboxCap = perSender * senders // never refuse: exactly-once is the point
		c.HeartbeatInterval = time.Hour
		c.HeartbeatTimeout = 2 * time.Hour
	})
	next := make([]int, senders) // sink-owned until the final notify
	errs := make(chan string, 1)
	notify := make([]chan struct{}, senders)
	for i := range notify {
		notify[i] = make(chan struct{}, 1)
	}
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		m, ok := msg.(tBatch)
		if !ok {
			return
		}
		if m.N != next[m.Sender] {
			select {
			case errs <- fmt.Sprintf("sender %d: got %d, want %d", m.Sender, m.N, next[m.Sender]):
			default:
			}
		}
		next[m.Sender] = m.N + 1
		runtime.Gosched() // a slow sink keeps the window shut under a big batch
		if m.Notify {
			notify[m.Sender] <- struct{}{}
		}
	})
	b.Register("sink", sink)
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("B", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Stats().CreditedConns > 0 })

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			n := 0
			for i := s; n < perSender; i++ {
				size := min(batchSizes[i%len(batchSizes)], perSender-n)
				for j := 0; j < size; j++ {
					ref.Tell(tBatch{Sender: s, N: n, Notify: j == size-1})
					n++
				}
				select {
				case <-notify[s]:
				case <-time.After(30 * time.Second):
					select {
					case errs <- fmt.Sprintf("sender %d: batch ending at %d never arrived", s, n-1):
					default:
					}
					return
				}
				// Every sender ends up here with its batch delivered, so the
				// window reopens in full once the senders are all between
				// batches.
				for a.Links()[0].Credits < window {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	for s, got := range next {
		if got != perSender {
			t.Fatalf("sender %d: sink saw %d messages, want %d", s, got, perSender)
		}
	}
	st := a.Stats()
	if st.Sent != int64(senders*perSender) || st.OutboxOverflows != 0 {
		t.Fatalf("link accepted %d of %d sends (%d overflowed)", st.Sent, senders*perSender, st.OutboxOverflows)
	}
	t.Logf("%d direct writes, %d batches carrying %d frames, %d credit stalls",
		st.DirectWrites, st.Batches, st.BatchedFrames, st.CreditStalls)
	// Both write paths and the park must have carried traffic, or the run
	// did not test the switch between them.
	if st.DirectWrites == 0 || st.Batches == st.DirectWrites || st.CreditStalls == 0 {
		t.Fatalf("run did not alternate write paths: %d direct writes, %d batches, %d credit stalls",
			st.DirectWrites, st.Batches, st.CreditStalls)
	}
}

// TestDirectWriteKeepsFIFOOneSender: one sender's 10k sequenced Tells arrive
// exactly once and in order while the link switches write paths.
func TestDirectWriteKeepsFIFOOneSender(t *testing.T) { sendBatches(t, 1, 10_000) }

// TestDirectWriteKeepsFIFOEightSenders: eight concurrent senders, each one's
// messages exactly once and in order (per-sender FIFO).
func TestDirectWriteKeepsFIFOEightSenders(t *testing.T) { sendBatches(t, 8, 1_250) }
