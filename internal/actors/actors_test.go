package actors

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestActorReceivesMessages(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	got := make(chan any, 3)
	ref := sys.MustSpawn("echo", func(ctx *Context, msg any) { got <- msg })
	ref.Tell(1)
	ref.Tell("two")
	ref.Tell(3.0)
	for _, want := range []any{1, "two", 3.0} {
		select {
		case m := <-got:
			if m != want {
				t.Fatalf("got %v, want %v (FIFO by default)", m, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("message never delivered")
		}
	}
}

func TestActorSerializesItsOwnMessages(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var inside, maxInside, count int32
	done := make(chan struct{})
	const n = 500
	ref := sys.MustSpawn("serial", func(ctx *Context, msg any) {
		v := atomic.AddInt32(&inside, 1)
		if v > atomic.LoadInt32(&maxInside) {
			atomic.StoreInt32(&maxInside, v)
		}
		atomic.AddInt32(&inside, -1)
		if atomic.AddInt32(&count, 1) == n {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/10; j++ {
				ref.Tell(j)
			}
		}()
	}
	wg.Wait()
	<-done
	if maxInside != 1 {
		t.Fatalf("behavior ran concurrently with itself: max %d", maxInside)
	}
}

func TestSendReply(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	server := sys.MustSpawn("doubler", func(ctx *Context, msg any) {
		ctx.Reply(msg.(int) * 2)
	})
	got, err := Ask(sys, server, 21, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("reply = %v, want 42", got)
	}
}

func TestAskTimeout(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	silent := sys.MustSpawn("silent", func(ctx *Context, msg any) {})
	_, err := Ask(sys, silent, "hello?", 50*time.Millisecond)
	if err != ErrAskTimeout {
		t.Fatalf("err = %v, want ErrAskTimeout", err)
	}
}

func TestBecome(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	// A toggle actor: replies "ping" then becomes a ponger, and vice versa.
	var ping, pong Behavior
	ping = func(ctx *Context, msg any) {
		ctx.Reply("ping")
		ctx.Become(pong)
	}
	pong = func(ctx *Context, msg any) {
		ctx.Reply("pong")
		ctx.Become(ping)
	}
	ref := sys.MustSpawn("toggle", ping)
	for i, want := range []string{"ping", "pong", "ping", "pong"} {
		got, err := Ask(sys, ref, i, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reply %d = %v, want %v", i, got, want)
		}
	}
}

func TestBecomeNilIgnored(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	ref := sys.MustSpawn("b", func(ctx *Context, msg any) {
		ctx.Become(nil) // must not replace the behavior
		ctx.Reply("ok")
	})
	got, err := Ask(sys, ref, 1, 2*time.Second)
	if err != nil || got != "ok" {
		t.Fatalf("first ask: %v %v", got, err)
	}
	got, err = Ask(sys, ref, 2, 2*time.Second)
	if err != nil || got != "ok" {
		t.Fatalf("second ask after Become(nil): %v %v", got, err)
	}
}

func TestSpawnFromActor(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	result := make(chan any, 1)
	parent := sys.MustSpawn("parent", func(ctx *Context, msg any) {
		child, err := ctx.Spawn("child", func(cctx *Context, cmsg any) {
			result <- cmsg
		})
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Send(child, msg)
	})
	parent.Tell("hello child")
	select {
	case m := <-result:
		if m != "hello child" {
			t.Fatalf("child got %v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("child never received")
	}
}

func TestStopDrainsQueuedFirst(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var processed int32
	release := make(chan struct{})
	ref := sys.MustSpawn("worker", func(ctx *Context, msg any) {
		if msg == "block" {
			<-release
			return
		}
		atomic.AddInt32(&processed, 1)
	})
	ref.Tell("block")
	time.Sleep(10 * time.Millisecond) // actor is now blocked in first message
	for i := 0; i < 5; i++ {
		ref.Tell(i)
	}
	sys.Stop(ref) // poison pill behind the 5 messages
	close(release)
	sys.Await(ref)
	if processed != 5 {
		t.Fatalf("processed = %d, want 5 (Stop must run after queued messages)", processed)
	}
	if sys.Alive(ref) {
		t.Fatal("actor should be stopped")
	}
}

func TestContextStopImmediate(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var processed int32
	ref := sys.MustSpawn("oneshot", func(ctx *Context, msg any) {
		atomic.AddInt32(&processed, 1)
		ctx.Stop()
	})
	ref.Tell(1)
	sys.Await(ref)
	ref.Tell(2) // deadletter
	time.Sleep(10 * time.Millisecond)
	if processed != 1 {
		t.Fatalf("processed = %d, want 1", processed)
	}
}

func TestDeadLetters(t *testing.T) {
	var dead int32
	var deadMu sync.Mutex
	var lastMsg any
	sys := NewSystem(Config{DeadLetter: func(to *Ref, e Envelope) {
		atomic.AddInt32(&dead, 1)
		deadMu.Lock()
		lastMsg = e.Msg
		deadMu.Unlock()
	}})
	defer sys.Shutdown()
	ref := sys.MustSpawn("mortal", func(ctx *Context, msg any) { ctx.Stop() })
	ref.Tell("live")
	sys.Await(ref)
	ref.Tell("ghost")
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(&dead) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadletter hook never fired")
		}
		time.Sleep(time.Millisecond)
	}
	deadMu.Lock()
	defer deadMu.Unlock()
	if lastMsg != "ghost" {
		t.Fatalf("deadletter msg = %v", lastMsg)
	}
	if sys.DeadLetters() < 1 {
		t.Fatalf("DeadLetters = %d", sys.DeadLetters())
	}
}

func TestNilRefTellIsDeadletter(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var r *Ref
	if r.Name() != "<nil>" {
		t.Fatalf("nil ref name = %q", r.Name())
	}
	// Reply with no sender is a deadletter, not a panic.
	ref := sys.MustSpawn("replier", func(ctx *Context, msg any) { ctx.Reply("to nobody") })
	ref.Tell("hi") // Tell has no sender
	deadline := time.Now().Add(2 * time.Second)
	for sys.DeadLetters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reply-to-nobody never became a deadletter")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSpawnAfterShutdown(t *testing.T) {
	sys := NewSystem(Config{})
	sys.Shutdown()
	if _, err := sys.Spawn("late", func(ctx *Context, msg any) {}); err != ErrSystemStopped {
		t.Fatalf("err = %v, want ErrSystemStopped", err)
	}
	sys.Shutdown() // idempotent
}

func TestSpawnNilBehavior(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	if _, err := sys.Spawn("nil", nil); err == nil {
		t.Fatal("nil behavior should error")
	}
}

func TestShutdownStopsAllActors(t *testing.T) {
	sys := NewSystem(Config{})
	refs := make([]*Ref, 10)
	for i := range refs {
		refs[i] = sys.MustSpawn("a", func(ctx *Context, msg any) {})
	}
	sys.Shutdown()
	for _, r := range refs {
		if sys.Alive(r) {
			t.Fatalf("%v still alive after Shutdown", r)
		}
	}
}

func TestProcessedCounter(t *testing.T) {
	sys := NewSystem(Config{})
	done := make(chan struct{})
	var n int32
	ref := sys.MustSpawn("count", func(ctx *Context, msg any) {
		if atomic.AddInt32(&n, 1) == 100 {
			close(done)
		}
	})
	for i := 0; i < 100; i++ {
		ref.Tell(i)
	}
	<-done
	sys.Shutdown()
	if sys.Processed() != 100 {
		t.Fatalf("Processed = %d, want 100", sys.Processed())
	}
}

func TestMailboxSizeAndString(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	release := make(chan struct{})
	ref := sys.MustSpawn("busy", func(ctx *Context, msg any) { <-release })
	ref.Tell(0)
	time.Sleep(10 * time.Millisecond)
	ref.Tell(1)
	ref.Tell(2)
	deadline := time.Now().Add(2 * time.Second)
	for sys.MailboxSize(ref) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("MailboxSize = %d, want 2", sys.MailboxSize(ref))
		}
		time.Sleep(time.Millisecond)
	}
	if ref.String() == "" || ref.Name() != "busy" {
		t.Fatalf("ref identity: %v", ref)
	}
	close(release)
}

// TestMailboxSizeStoppedAndForeign: MailboxSize reads through the Ref's
// cell, so a stopped actor reads 0 although its Ref still holds the cell,
// and another system's Ref reads 0 although its own mailbox is not empty.
func TestMailboxSizeStoppedAndForeign(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	stopped := sys.MustSpawn("stopped", func(ctx *Context, msg any) {})
	stopped.Tell(0)
	sys.Stop(stopped)
	sys.Await(stopped)
	if n := sys.MailboxSize(stopped); n != 0 {
		t.Fatalf("stopped actor: MailboxSize = %d, want 0", n)
	}

	other := NewSystem(Config{})
	defer other.Shutdown()
	release := make(chan struct{})
	defer close(release)
	busy := other.MustSpawn("busy", func(ctx *Context, msg any) { <-release })
	busy.Tell(0)
	waitUntil(t, func() bool { return other.MailboxSize(busy) == 0 }) // 0 is in hand
	busy.Tell(1)
	if n := other.MailboxSize(busy); n != 1 {
		t.Fatalf("own system: MailboxSize = %d, want 1", n)
	}
	if n := sys.MailboxSize(busy); n != 0 {
		t.Fatalf("foreign system's ref: MailboxSize = %d, want 0", n)
	}
}

func TestPerturbedDeliveryReordersButLosesNothing(t *testing.T) {
	sys := NewSystem(Config{PerturbSeed: 42})
	defer sys.Shutdown()
	const n = 64
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	ref := sys.MustSpawn("bag", func(ctx *Context, msg any) {
		mu.Lock()
		got = append(got, msg.(int))
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
		// Slow consumption so the queue builds up and perturbation can act.
		time.Sleep(100 * time.Microsecond)
	})
	for i := 0; i < n; i++ {
		ref.Tell(i)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	sorted := append([]int(nil), got...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("lost/duplicated message: sorted[%d]=%d", i, v)
		}
	}
	inOrder := true
	for i, v := range got {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("perturbed mailbox delivered in exact FIFO order; perturbation seems inactive")
	}
}

func TestFIFOWhenUnperturbed(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	const n = 200
	var got []int
	done := make(chan struct{})
	ref := sys.MustSpawn("fifo", func(ctx *Context, msg any) {
		got = append(got, msg.(int))
		if len(got) == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		ref.Tell(i)
	}
	<-done
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %d", i, v)
		}
	}
}

func TestPingPongManyRounds(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	const rounds = 1000
	done := make(chan struct{})
	var pong *Ref
	ping := sys.MustSpawn("ping", func(ctx *Context, msg any) {
		n := msg.(int)
		if n >= rounds {
			close(done)
			return
		}
		ctx.Send(pong, n+1)
	})
	pong = sys.MustSpawn("pong", func(ctx *Context, msg any) {
		ctx.Reply(msg.(int) + 1)
	})
	ping.Tell(0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong stalled")
	}
}

// Property: for any message burst, an accumulator actor receives exactly the
// multiset sent, regardless of perturbation seed.
func TestDeliveryConservationQuick(t *testing.T) {
	f := func(msgs []int16, seed int64) bool {
		sys := NewSystem(Config{PerturbSeed: seed})
		defer sys.Shutdown()
		var mu sync.Mutex
		counts := map[int16]int{}
		total := 0
		done := make(chan struct{})
		want := len(msgs)
		ref := sys.MustSpawn("acc", func(ctx *Context, msg any) {
			mu.Lock()
			counts[msg.(int16)]++
			total++
			if total == want {
				close(done)
			}
			mu.Unlock()
		})
		for _, m := range msgs {
			ref.Tell(m)
		}
		if want == 0 {
			return true
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		wantCounts := map[int16]int{}
		for _, m := range msgs {
			wantCounts[m]++
		}
		if len(counts) != len(wantCounts) {
			return false
		}
		for k, v := range wantCounts {
			if counts[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAwaitUnknownRefReturns(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	ref := sys.MustSpawn("x", func(ctx *Context, msg any) { ctx.Stop() })
	ref.Tell(1)
	sys.Await(ref)
	sys.Await(ref) // second await on dead actor returns immediately
}

func TestCrossSystemSendIsDeadletter(t *testing.T) {
	sys1 := NewSystem(Config{})
	sys2 := NewSystem(Config{})
	defer sys1.Shutdown()
	defer sys2.Shutdown()
	ref2 := sys2.MustSpawn("other", func(ctx *Context, msg any) {})
	// Deliver through sys1's context: ref from another system is undeliverable.
	got := make(chan struct{})
	ref1 := sys1.MustSpawn("local", func(ctx *Context, msg any) {
		ctx.Send(ref2, "hello") // ref2.sys != nil, TellFrom routes via sys2 — should work
		close(got)
	})
	ref1.Tell("go")
	<-got
}
