package actors

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tagged is the counting-harness message: sender identity plus a per-sender
// sequence number, so receivers can prove per-sender FIFO and exact
// delivery counts.
type tagged struct {
	sender int
	seq    int
}

// TestRingMailboxFIFOAndCounting is the core property test: many concurrent
// senders, one consumer, 10k+ messages; every envelope must arrive exactly
// once and in per-sender order (the ring is globally FIFO per reservation
// order, but per-sender order is the contract).
func TestRingMailboxFIFOAndCounting(t *testing.T) {
	const senders = 8
	const perSender = 2500 // 20k messages total
	m := newMailbox(0, MailboxBlock, 0, 0)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if m.put(Envelope{Msg: tagged{sender: s, seq: i}}, putWait) != putOK {
					t.Errorf("put refused on open mailbox (sender %d seq %d)", s, i)
					return
				}
			}
		}(s)
	}
	nextSeq := make([]int, senders)
	got := 0
	var buf []Envelope
	for got < senders*perSender {
		batch := m.drain(buf[:0], 64)
		if len(batch) == 0 {
			runtime.Gosched() // a worker would end its slice here
		}
		for _, e := range batch {
			msg := e.Msg.(tagged)
			if msg.seq != nextSeq[msg.sender] {
				t.Fatalf("sender %d: got seq %d, want %d (FIFO violation or lost/duplicated envelope)",
					msg.sender, msg.seq, nextSeq[msg.sender])
			}
			nextSeq[msg.sender]++
			got++
		}
	}
	wg.Wait()
	if m.size() != 0 {
		t.Fatalf("drained mailbox reports size %d", m.size())
	}
	if len(m.drain(nil, 64)) != 0 {
		t.Fatal("drain on a drained mailbox returned envelopes")
	}
}

// TestRingMailboxCloseAccounting races senders against close and asserts
// conservation: every put either succeeded (and its envelope is consumed or
// drained at close) or was refused — no envelope is lost or duplicated.
func TestRingMailboxCloseAccounting(t *testing.T) {
	for round := 0; round < 20; round++ {
		m := newMailbox(0, MailboxBlock, 0, 0)
		const senders = 8
		const perSender = 500
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if m.put(Envelope{Msg: tagged{sender: s, seq: i}}, putWait) == putOK {
						accepted.Add(1)
					}
				}
			}(s)
		}
		// Consume a prefix, then close mid-stream and drain the rest.
		consumed := 0
		var buf []Envelope
		for consumed < 700 {
			batch := m.drain(buf[:0], 32)
			if len(batch) == 0 {
				runtime.Gosched()
			}
			consumed += len(batch)
		}
		drained := len(m.close())
		wg.Wait()
		// Late puts after close must be refused; drain again to catch any
		// envelope that slipped a reservation in before the closed bit.
		if got := int64(consumed + drained); got != accepted.Load() {
			t.Fatalf("round %d: consumed %d + drained %d = %d, want %d accepted",
				round, consumed, drained, consumed+drained, accepted.Load())
		}
		if m.put(Envelope{Msg: 0}, putWait) == putOK {
			t.Fatal("put succeeded on a closed mailbox")
		}
	}
}

// TestRingMailboxChunkBoundaries drives the queue across many chunk
// boundaries with a tiny interleaved produce/consume pattern, exercising
// headChunk advancement and prodHint revalidation.
func TestRingMailboxChunkBoundaries(t *testing.T) {
	m := newMailbox(0, MailboxBlock, 0, 0)
	const total = chunkSize*3 + 17
	next := 0
	for i := 0; i < total; i++ {
		if m.put(Envelope{Msg: i}, putWait) != putOK {
			t.Fatal("put refused")
		}
		// Lag the consumer by a chunk so boundaries stay in play.
		if i >= chunkSize {
			batch := m.drain(nil, 1)
			if len(batch) != 1 {
				t.Fatalf("drain empty with %d queued", m.size())
			}
			if batch[0].Msg.(int) != next {
				t.Fatalf("got %d, want %d", batch[0].Msg.(int), next)
			}
			next++
		}
	}
	for _, e := range m.drain(nil, total) {
		if e.Msg.(int) != next {
			t.Fatalf("got %d, want %d", e.Msg.(int), next)
		}
		next++
	}
	if next != total {
		t.Fatalf("consumed %d, want %d", next, total)
	}
}

// --- System-level stress: the full delivery contract through Tell ---

// TestSystemStressFIFOPerSender floods one actor from many senders through
// the real Tell path (unbounded mailbox, default pool) and asserts
// per-sender FIFO plus exact counting at the behavior level.
func TestSystemStressFIFOPerSender(t *testing.T) {
	testSystemStressFIFO(t, Config{})
}

// TestSystemStressFIFOPerSenderPooled is the same contract on one worker
// with short slices: an actor that yields and is re-queued every 8 messages
// must not reorder or drop envelopes.
func TestSystemStressFIFOPerSenderPooled(t *testing.T) {
	testSystemStressFIFO(t, Config{PoolSize: 1, Throughput: 8})
}

// TestSystemStressFIFOPerSenderBounded is the same contract through a
// bounded mailbox: backpressure must not reorder or drop envelopes.
func TestSystemStressFIFOPerSenderBounded(t *testing.T) {
	testSystemStressFIFO(t, Config{MailboxCap: 32})
}

func testSystemStressFIFO(t *testing.T, cfg Config) {
	const senders = 8
	const perSender = 2000
	sys := NewSystem(cfg)
	defer sys.Shutdown()
	nextSeq := make([]int, senders)
	done := make(chan struct{})
	got := 0
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		m := msg.(tagged)
		if m.seq != nextSeq[m.sender] {
			t.Errorf("sender %d: got seq %d, want %d", m.sender, m.seq, nextSeq[m.sender])
		}
		nextSeq[m.sender]++
		got++
		if got == senders*perSender {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				sink.Tell(tagged{sender: s, seq: i})
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("sink stalled: processed %d of %d", got, senders*perSender)
	}
	// The behavior closes done inside its last call, and the system counts
	// that call only after it returns. Shutdown waits for every actor to
	// finish, so the count read after it is final.
	sys.Shutdown()
	if p := sys.Processed(); p != int64(senders*perSender) {
		t.Fatalf("Processed() = %d, want %d", p, senders*perSender)
	}
}

// TestSystemStressCloseConservation races senders against Stop and checks
// the system-wide conservation law: every send is either
// processed or deadlettered, never both, never neither.
func TestSystemStressCloseConservation(t *testing.T) {
	for round := 0; round < 10; round++ {
		// Count only payload envelopes: a poison pill from Shutdown that
		// races an earlier Stop is drained to deadletters too (seed
		// behavior), and must not skew the conservation check.
		var deadPayload atomic.Int64
		sys := NewSystem(Config{DeadLetter: func(to *Ref, e Envelope) {
			if _, ok := e.Msg.(tagged); ok {
				deadPayload.Add(1)
			}
		}})
		const senders = 6
		const perSender = 400
		var processed atomic.Int64
		sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
			processed.Add(1)
		})
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					sink.Tell(tagged{sender: s, seq: i})
					if s == 0 && i == 100 {
						sys.Stop(sink)
					}
				}
			}(s)
		}
		wg.Wait()
		sys.Shutdown()
		total := int64(senders * perSender)
		if got := processed.Load() + deadPayload.Load(); got != total {
			t.Fatalf("round %d: processed %d + deadletters %d = %d, want %d",
				round, processed.Load(), deadPayload.Load(), got, total)
		}
	}
}

// TestSystemStressRestartKeepsMailbox floods a supervised actor that
// panics periodically; restarts must preserve the mailbox, so the only
// losses are the poisoned messages themselves.
func TestSystemStressRestartKeepsMailbox(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	sup := sys.Supervise("root", SupervisorSpec{MaxRestarts: 1 << 20})
	const total = 5000
	const poisonEvery = 97
	var handled, poisoned atomic.Int64
	seen := 0
	ref := sup.MustSpawn("worker", func() Behavior {
		return func(ctx *Context, msg any) {
			seen++ // actor-local: behaviors never race with themselves
			if msg.(int)%poisonEvery == 0 {
				poisoned.Add(1)
				panic("poisoned")
			}
			handled.Add(1)
		}
	})
	for i := 1; i <= total; i++ {
		ref.Tell(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	want := int64(total - total/poisonEvery)
	for handled.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != want {
		t.Fatalf("handled %d, want %d (poisoned %d, restarts %d)",
			handled.Load(), want, poisoned.Load(), sys.Restarts())
	}
	if got := poisoned.Load(); got != int64(total/poisonEvery) {
		t.Fatalf("poisoned %d, want %d", got, total/poisonEvery)
	}
	if sys.Restarts() != poisoned.Load() {
		t.Fatalf("restarts %d != poisons %d", sys.Restarts(), poisoned.Load())
	}
}
