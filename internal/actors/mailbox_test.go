package actors

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBoundedMailboxBackpressure(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 2})
	defer sys.Shutdown()
	release := make(chan struct{})
	var handled atomic.Int32
	slow := sys.MustSpawn("slow", func(ctx *Context, msg any) {
		<-release
		handled.Add(1)
	})
	slow.Tell(0) // picked up immediately
	deadline := time.Now().Add(2 * time.Second)
	for sys.MailboxSize(slow) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	slow.Tell(1)
	slow.Tell(2) // mailbox now full (cap 2)
	blocked := make(chan struct{})
	go func() {
		slow.Tell(3) // must block until the actor drains one
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("send into a full bounded mailbox did not block")
	case <-time.After(50 * time.Millisecond):
	}
	release <- struct{}{} // handle message 0; space opens
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked sender never released")
	}
	close(release)
	deadline = time.Now().Add(2 * time.Second)
	for handled.Load() != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != 4 {
		t.Fatalf("handled = %d, want 4", handled.Load())
	}
}

func TestBoundedMailboxShutdownUnblocksSenders(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 1})
	var dead atomic.Int64
	sys.cfg.DeadLetter = func(to *Ref, e Envelope) { dead.Add(1) }
	block := make(chan struct{})
	busy := sys.MustSpawn("busy", func(ctx *Context, msg any) { <-block })
	busy.Tell(0)
	// Wait until 0 is in hand, so 1 fills the mailbox.
	waitUntil(t, func() bool { return sys.MailboxSize(busy) == 0 })
	busy.Tell(1)
	sent := make(chan struct{})
	go func() {
		busy.Tell(2) // blocks on the full mailbox
		close(sent)
	}()
	waitUntil(t, func() bool { return busy.cell.mbox.bound.waiters.Load() == 1 })
	stopped := make(chan struct{})
	go func() {
		sys.Shutdown()
		close(stopped)
	}()
	// Shutdown's poison pill bypasses the cap; once it is queued behind 1,
	// let the in-flight message finish so Shutdown proceeds.
	waitUntil(t, func() bool { return sys.MailboxSize(busy) == 2 })
	close(block)
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after shutdown")
	}
	<-stopped
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		runtime.Gosched()
	}
}

func TestBoundedMailboxPoisonPillBypassesCap(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 1})
	block := make(chan struct{})
	busy := sys.MustSpawn("busy", func(ctx *Context, msg any) { <-block })
	busy.Tell(0)
	time.Sleep(10 * time.Millisecond)
	busy.Tell(1)   // mailbox full
	sys.Stop(busy) // control message must not block despite the cap
	close(block)
	done := make(chan struct{})
	go func() { sys.Await(busy); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("poison pill was blocked by the mailbox cap")
	}
	sys.Shutdown()
}

// TestMailboxWaiterCounters pins signal-only-when-waiting: uncontended
// put/drain traffic on a bounded mailbox registers no waiter and issues no
// wake; a blocked sender registers, and one dequeue releases it.
func TestMailboxWaiterCounters(t *testing.T) {
	m := newMailbox(2, MailboxBlock, time.Millisecond, 0)
	b := m.bound
	idle := b.wake
	for i := 0; i < 10; i++ {
		if m.put(Envelope{Msg: i}, putWait) != putOK {
			t.Fatal("put refused")
		}
		if len(m.drain(nil, 1)) != 1 {
			t.Fatal("drain empty")
		}
	}
	if w := b.waiters.Load(); w != 0 {
		t.Fatalf("uncontended traffic left waiters: %d", w)
	}
	b.mu.Lock()
	woke := b.wake != idle
	b.mu.Unlock()
	if woke {
		t.Fatal("a drain issued a wake with no sender waiting")
	}

	m.put(Envelope{Msg: 0}, putWait)
	m.put(Envelope{Msg: 1}, putWait)
	admitted := make(chan putResult, 1)
	go func() { admitted <- m.put(Envelope{Msg: "x"}, putWait) }()
	waitUntil(t, func() bool { return b.waiters.Load() == 1 })
	m.drain(nil, 1)
	select {
	case r := <-admitted:
		if r != putOK {
			t.Fatalf("released sender's put = %v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a dequeue with a registered sender did not wake it")
	}
}

// TestBoundedOverflowAccounting checks overflow bookkeeping: messages
// beyond the cap block their senders, every blocked sender is admitted
// exactly once as slots free, and a close surfaces exactly the still-queued
// envelopes and refuses the senders still waiting.
func TestBoundedOverflowAccounting(t *testing.T) {
	const cap = 4
	const overflow = 8
	m := newMailbox(cap, MailboxBlock, time.Millisecond, 0)
	for i := 0; i < cap; i++ {
		if m.put(Envelope{Msg: i}, putWait) != putOK {
			t.Fatal("put refused while under cap")
		}
	}
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < overflow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if m.put(Envelope{Msg: cap + i}, putWait) == putOK {
				admitted.Add(1)
			}
		}(i)
	}
	waitUntil(t, func() bool { return m.bound.waiters.Load() == overflow })
	if got := m.size(); got != cap {
		t.Fatalf("size = %d while senders blocked, want %d (cap exceeded?)", got, cap)
	}
	// Drain half the overflow one by one: each take admits exactly one
	// blocked sender, so the queue stays at the cap.
	taken := 0
	for taken < overflow/2 {
		if len(m.drain(nil, 1)) != 1 {
			t.Fatal("drain empty with senders pending")
		}
		taken++
		waitUntil(t, func() bool { return admitted.Load() == int64(taken) })
		if got := m.size(); got != cap {
			t.Fatalf("size = %d after %d takes, want refilled to %d", got, taken, cap)
		}
	}
	waitUntil(t, func() bool { return m.bound.waiters.Load() == overflow-int32(taken) })
	// Close: the remaining queued envelopes surface for deadletter
	// accounting, still-blocked senders are refused.
	queued := len(m.close())
	wg.Wait()
	if total := taken + queued + (overflow - int(admitted.Load())); total != cap+overflow {
		t.Fatalf("taken %d + drained %d + refused %d != %d sent",
			taken, queued, overflow-int(admitted.Load()), cap+overflow)
	}
	// Everything that entered the mailbox is the initial fill plus the
	// admitted overflow senders.
	if taken+queued != cap+int(admitted.Load()) {
		t.Fatalf("taken %d + queued %d != initial %d + admitted %d",
			taken, queued, cap, admitted.Load())
	}
}

func TestUnboundedDefaultNeverBlocks(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	release := make(chan struct{})
	slow := sys.MustSpawn("slow", func(ctx *Context, msg any) { <-release })
	donesend := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			slow.Tell(i)
		}
		close(donesend)
	}()
	select {
	case <-donesend:
	case <-time.After(5 * time.Second):
		t.Fatal("unbounded sends blocked")
	}
	close(release)
}
