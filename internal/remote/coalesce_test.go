package remote

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/faults"
)

// tSeq is a wire payload carrying a (sender, sequence) pair so the receiver
// can check per-sender FIFO order and count every delivery.
type tSeq struct {
	Sender int
	N      int
}

func init() { RegisterType(tSeq{}) }

// countingDropper drops frame sends on one directed link with probability p
// and counts exactly how many it discarded, so a conservation equation can
// balance sent = delivered + dropped + deadlettered. Dial operations pass
// through: the link must stay up, only frames get lost.
type countingDropper struct {
	mu    sync.Mutex
	rng   *rand.Rand
	link  string
	p     float64
	armed atomic.Bool
	drops atomic.Int64
}

func (d *countingDropper) Decide(op faults.Op) faults.Decision {
	if !d.armed.Load() || op.Site != faults.SiteWire || op.Actor != d.link || op.Msg == "dial" {
		return faults.Decision{}
	}
	d.mu.Lock()
	hit := d.rng.Float64() < d.p
	d.mu.Unlock()
	if !hit {
		return faults.Decision{}
	}
	d.drops.Add(1)
	return faults.Decision{Action: faults.ActDrop}
}

// TestCoalescedSendsConserveFrames floods a link from several concurrent
// senders while a counting injector drops a fraction of the frames, then
// balances the books: every Tell accepted onto the link was either delivered
// to the sink, dropped by the injector, or deadlettered at the receiver —
// coalescing must neither lose nor duplicate frames. Heartbeats are pushed
// out past the test horizon so the only frames in flight are messages.
func TestCoalescedSendsConserveFrames(t *testing.T) {
	const senders, perSender = 5, 400

	net := NewMemNetwork()
	mk := func(addr string) *Node {
		n, err := NewNode(Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: time.Hour, // no control frames during the run
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
			OutboxCap:         4 * senders * perSender, // no sender-side overflow
			Seed:              1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk("A"), mk("B")
	defer a.Close()
	defer b.Close()

	var delivered atomic.Int64
	lastSeq := make([]atomic.Int64, senders)
	for i := range lastSeq {
		lastSeq[i].Store(-2_000_000) // below the warmup range; reset to -1 before the real run
	}
	orderErr := make(chan string, 1)
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if s, ok := msg.(tSeq); ok {
			// Per-sender FIFO: drops leave gaps, but order never inverts
			// and nothing arrives twice.
			if prev := lastSeq[s.Sender].Swap(int64(s.N)); int64(s.N) <= prev {
				select {
				case orderErr <- fmt.Sprintf("sender %d: seq %d after %d", s.Sender, s.N, prev):
				default:
				}
			}
			delivered.Add(1)
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

	// Warm the streaming session up before arming the dropper: the first
	// frames of a gob stream carry type descriptors, and losing those would
	// poison the whole session rather than lose one message. Keep sending
	// until the hello-ack has demonstrably landed, then one more through the
	// session, so by the time everything warm has been delivered the
	// descriptors are settled on the receiver. Steady-state frames after
	// that are self-contained data.
	dropper := &countingDropper{rng: rand.New(rand.NewSource(3)), link: "A->B", p: 0.05}
	net.SetInjector(dropper)
	warm := int64(0)
	tellWarm := func() {
		ref.Tell(tSeq{Sender: 0, N: int(-1_000_000 + warm)}) // increasing, below the real run's range
		warm++
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link never received its hello-ack")
		}
		tellWarm()
		time.Sleep(time.Millisecond)
	}
	tellWarm()
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == warm })
	delivered.Store(0)
	lastSeq[0].Store(-1)
	dropper.armed.Store(true)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				ref.Tell(tSeq{Sender: s, N: i})
			}
		}(s)
	}
	wg.Wait()

	total := int64(senders * perSender)
	if got := a.Stats().Sent - warm; got != total {
		t.Fatalf("link accepted %d frames, want %d (outbox overflowed?)", got, total)
	}
	// Quiesce: the books balance once every accepted frame has either
	// arrived, been dropped, or deadlettered.
	balance := func() int64 {
		return delivered.Load() + dropper.drops.Load() + b.Stats().RemoteDeadLetters
	}
	waitFor(t, 10*time.Second, func() bool { return balance() == total })
	select {
	case msg := <-orderErr:
		t.Fatalf("FIFO violation: %s", msg)
	default:
	}
	if dropper.drops.Load() == 0 {
		t.Fatal("injector dropped nothing; the run was not actually lossy")
	}
	if st := a.Stats(); st.Batches == 0 || st.BatchedFrames < st.Batches {
		t.Fatalf("coalescing stats implausible: %d batches, %d frames", st.Batches, st.BatchedFrames)
	}
}

// TestMidBatchPartitionKeepsFIFO cuts the link repeatedly while a burst is
// in flight. Frames die mid-batch, the link tears down on heartbeat timeout
// and starts a fresh streaming session on heal — and through all of it
// the sink must observe strictly increasing per-sender sequence numbers:
// gaps are allowed (at-most-once), inversions and duplicates are not.
func TestMidBatchPartitionKeepsFIFO(t *testing.T) {
	a, b, net := twoMemNodes(t, func(c *Config) {
		c.OutboxCap = 8192
	})
	part := faults.NewPartition()
	net.SetInjector(part)

	last := int64(-1)
	orderErr := make(chan string, 1)
	var delivered atomic.Int64
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if s, ok := msg.(tSeq); ok {
			if int64(s.N) <= last {
				select {
				case orderErr <- fmt.Sprintf("seq %d after %d", s.N, last):
				default:
				}
			}
			last = int64(s.N)
			delivered.Add(1)
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

	// Saw the partition while a single sender streams a long burst.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				part.HealAll()
				return
			case <-time.After(8 * time.Millisecond):
				part.Cut("A", "B")
			}
			select {
			case <-stop:
				part.HealAll()
				return
			case <-time.After(12 * time.Millisecond):
				part.HealAll()
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		ref.Tell(tSeq{Sender: 0, N: i})
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done

	// Let the healed link drain what survived, then check order held.
	waitFor(t, 10*time.Second, func() bool {
		d := delivered.Load()
		time.Sleep(20 * time.Millisecond)
		return delivered.Load() == d
	})
	select {
	case msg := <-orderErr:
		t.Fatalf("FIFO violation across partition: %s", msg)
	default:
	}
	if delivered.Load() == 0 {
		t.Fatal("nothing was delivered at all")
	}
	if part.Dropped() == 0 {
		t.Fatal("partition never bit")
	}
}
