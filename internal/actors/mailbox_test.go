package actors

import (
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
	time.Sleep(10 * time.Millisecond)
	busy.Tell(1) // fills the mailbox
	sent := make(chan struct{})
	go func() {
		busy.Tell(2) // blocks on the full mailbox
		close(sent)
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(block) // let the in-flight message finish so Shutdown proceeds
	}()
	sys.Shutdown()
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after shutdown")
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

// TestLockMailboxWaiterCounters pins the signal-only-when-waiting fix: the
// uncontended put/drain path leaves no waiter registered, so no condvar wake
// is issued unless a bounded sender is actually blocked; a blocked sender
// registers, and exactly one dequeue releases it.
func TestLockMailboxWaiterCounters(t *testing.T) {
	m := newLockMailbox(nil, 2, 0, MailboxBlock, time.Millisecond)
	for i := 0; i < 10; i++ {
		if m.put(Envelope{Msg: i}, putWait) != putOK {
			t.Fatal("put refused")
		}
		if len(m.drain(nil, 1)) != 1 {
			t.Fatal("drain empty")
		}
	}
	m.mu.Lock()
	pw := m.putWaiters
	m.mu.Unlock()
	if pw != 0 {
		t.Fatalf("uncontended traffic left waiters: put=%d", pw)
	}

	m.put(Envelope{Msg: 0}, putWait)
	m.put(Envelope{Msg: 1}, putWait)
	admitted := make(chan putResult, 1)
	go func() { admitted <- m.put(Envelope{Msg: "x"}, putWait) }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		pw = m.putWaiters
		m.mu.Unlock()
		if pw == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pw != 1 {
		t.Fatalf("blocked sender not counted: putWaiters=%d", pw)
	}
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

// TestBoundedOverflowAccounting checks overflow bookkeeping on the new
// split-condvar path: messages beyond the cap block their senders, every
// blocked sender is admitted exactly once as slots free, and a close
// surfaces exactly the still-queued envelopes.
func TestBoundedOverflowAccounting(t *testing.T) {
	const cap = 4
	const overflow = 8
	m := newLockMailbox(nil, cap, 0, MailboxBlock, time.Millisecond)
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
	time.Sleep(20 * time.Millisecond) // let the overflow senders block
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
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.size() < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.size(); got != cap {
		t.Fatalf("size = %d after partial drain, want refilled to %d", got, cap)
	}
	// Close: the remaining queued envelopes surface for deadletter
	// accounting, still-blocked senders are refused.
	queued := len(m.close(true))
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
