package actors

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestPooledIdleActorsNoGoroutines is the headline scaling property:
// spawning a large, mostly-idle actor population must not cost a goroutine
// per actor.
func TestPooledIdleActorsNoGoroutines(t *testing.T) {
	const n = 20000
	before := runtime.NumGoroutine()
	sys := NewSystem(Config{PoolSize: 4})
	var handled atomic.Int64
	refs := make([]*Ref, n)
	for i := range refs {
		refs[i] = sys.MustSpawn("idle", func(ctx *Context, msg any) { handled.Add(1) })
	}
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 64 {
		t.Fatalf("spawning %d actors grew goroutines by %d (want ≤ pool size + slack)", n, grew)
	}
	// They are real actors: each must still process a message.
	for _, r := range refs {
		r.Tell(struct{}{})
	}
	deadline := time.Now().Add(30 * time.Second)
	for handled.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != n {
		t.Fatalf("handled %d of %d", handled.Load(), n)
	}
	sys.Shutdown()
	// Shutdown retires the pool: no lingering workers.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+8 {
		t.Fatalf("after Shutdown %d goroutines remain (started at %d)", got, before)
	}
}

// TestPooledBasicDelivery covers the everyday actor operations on the
// worker pool: Ask, Tell, Reply, Become, Stop, Await, deadletters after stop.
func TestPooledBasicDelivery(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()

	// Ask round trip (the reply lands in the ask's reply slot, no actor).
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	got, err := Ask(sys, echo, "ping", 5*time.Second)
	if err != nil || got != "ping" {
		t.Fatalf("Ask = %v, %v", got, err)
	}

	// Become switches behavior between messages.
	outs := make(chan string, 2)
	var second Behavior = func(ctx *Context, msg any) { outs <- "second" }
	toggler := sys.MustSpawn("toggler", func(ctx *Context, msg any) {
		outs <- "first"
		ctx.Become(second)
	})
	toggler.Tell(nil)
	toggler.Tell(nil)
	if a, b := <-outs, <-outs; a != "first" || b != "second" {
		t.Fatalf("become sequence = %s, %s", a, b)
	}

	// Stop + Await + deadletter after stop.
	var dead atomic.Int64
	sys.cfg.DeadLetter = func(to *Ref, e Envelope) { dead.Add(1) }
	sys.Stop(echo)
	sys.Await(echo)
	if sys.Alive(echo) {
		t.Fatal("echo alive after Await")
	}
	echo.Tell("late")
	if dead.Load() == 0 {
		t.Fatal("send to stopped actor did not deadletter")
	}
}

// TestPooledFairness runs two flooding actors on a single worker: the
// Throughput quantum must force interleaving so neither starves.
func TestPooledFairness(t *testing.T) {
	sys := NewSystem(Config{PoolSize: 1, Throughput: 8})
	defer sys.Shutdown()
	const per = 400
	var aDone, bDone atomic.Int64
	a := sys.MustSpawn("a", func(ctx *Context, msg any) { aDone.Add(1) })
	b := sys.MustSpawn("b", func(ctx *Context, msg any) { bDone.Add(1) })
	for i := 0; i < per; i++ {
		a.Tell(i)
		b.Tell(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for (aDone.Load() < per || bDone.Load() < per) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if aDone.Load() != per || bDone.Load() != per {
		t.Fatalf("a=%d b=%d, want %d each (starvation on a 1-worker pool?)",
			aDone.Load(), bDone.Load(), per)
	}
}

// TestPooledSupervisionRestart verifies the supervision contract on the
// worker pool: a panicking actor is restarted in place with its mailbox
// intact.
func TestPooledSupervisionRestart(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	sup := sys.Supervise("root", SupervisorSpec{MaxRestarts: 100})
	var handled atomic.Int64
	ref := sup.MustSpawn("worker", func() Behavior {
		return func(ctx *Context, msg any) {
			if msg == "boom" {
				panic("boom")
			}
			handled.Add(1)
		}
	})
	ref.Tell(1)
	ref.Tell("boom")
	ref.Tell(2) // queued behind the poison: must survive the restart
	ref.Tell(3)
	deadline := time.Now().Add(10 * time.Second)
	for handled.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != 3 {
		t.Fatalf("handled %d, want 3", handled.Load())
	}
	if sys.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", sys.Restarts())
	}
}

// TestPooledBoundedBackpressure combines the worker pool with MailboxCap:
// senders must block on a full mailbox and resume as the pool drains it.
func TestPooledBoundedBackpressure(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 4})
	defer sys.Shutdown()
	var handled atomic.Int64
	slow := sys.MustSpawn("slow", func(ctx *Context, msg any) {
		time.Sleep(time.Millisecond)
		handled.Add(1)
	})
	const total = 64
	done := make(chan struct{})
	go func() {
		for i := 0; i < total; i++ {
			slow.Tell(i) // blocks whenever the cap is hit
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bounded sends never completed")
	}
	deadline := time.Now().Add(30 * time.Second)
	for handled.Load() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != total {
		t.Fatalf("handled %d, want %d", handled.Load(), total)
	}
}

// TestPooledShutdownDrains: Shutdown must deliver queued messages before
// the poison pill.
func TestPooledShutdownDrains(t *testing.T) {
	sys := NewSystem(Config{PoolSize: 2})
	var handled atomic.Int64
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) { handled.Add(1) })
	const total = 500
	for i := 0; i < total; i++ {
		sink.Tell(i)
	}
	sys.Shutdown()
	if handled.Load() != total {
		t.Fatalf("handled %d of %d before shutdown completed", handled.Load(), total)
	}
	// Shutdown is idempotent with the pool retired.
	sys.Shutdown()
}

// TestPerturbedDeliveryStillWorks pins the PerturbSeed contract on the
// worker pool: all messages arrive exactly once (order is free).
func TestPerturbedDeliveryStillWorks(t *testing.T) {
	sys := NewSystem(Config{PerturbSeed: 42})
	var handled atomic.Int64
	var outOfOrder atomic.Bool
	gate := make(chan struct{})
	last := -1
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		if handled.Load() == 0 {
			<-gate // hold the first delivery until the backlog is queued
		}
		if msg.(int) < last {
			outOfOrder.Store(true)
		}
		last = msg.(int)
		handled.Add(1)
	})
	const total = 2000
	for i := 0; i < total; i++ {
		sink.Tell(i)
	}
	close(gate)
	// Wait for the drain before Shutdown: a poison pill in a perturbed
	// mailbox is itself subject to reordering and may overtake payloads.
	deadline := time.Now().Add(30 * time.Second)
	for handled.Load() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sys.Shutdown()
	if handled.Load() != total {
		t.Fatalf("handled %d of %d", handled.Load(), total)
	}
	if !outOfOrder.Load() {
		t.Fatal("perturbed mailbox delivered 2000 messages in perfect FIFO order")
	}
}

// TestManagedBlockingSendOnOneWorker: a behavior's ctx.Send that must wait
// on a full MailboxBlock mailbox hands its worker slot to a spare worker, so
// on a pool of one the consumer it waits on still runs and every send
// completes.
func TestManagedBlockingSendOnOneWorker(t *testing.T) {
	sys := NewSystem(Config{PoolSize: 1, MailboxCap: 2})
	const total = 16
	var consumed atomic.Int64
	done := make(chan struct{})
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		if consumed.Add(1) == total {
			close(done)
		}
	})
	producer := sys.MustSpawn("producer", func(ctx *Context, msg any) {
		// The producer holds the only worker: the sink is queued behind it
		// with a full mailbox once two sends have landed.
		for i := 0; i < total; i++ {
			ctx.Send(sink, i)
		}
	})
	producer.Tell("go")
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("sink consumed %d of %d: the blocked send pinned the only worker", consumed.Load(), total)
	}
	sys.Shutdown()
}

// TestRestartBackoffFreesWorker: a supervised actor waiting out its restart
// backoff leaves the worker, so on a pool of one a sibling's mail is
// handled during the backoff, and the crashed actor's queued mail after it.
func TestRestartBackoffFreesWorker(t *testing.T) {
	sys := NewSystem(Config{PoolSize: 1})
	restarted := make(chan struct{})
	sup := sys.Supervise("root", SupervisorSpec{
		MaxRestarts: 1,
		Backoff:     time.Second,
		OnEvent: func(ev LifecycleEvent) {
			if ev.Kind == LifecycleRestarted {
				close(restarted)
			}
		},
	})
	handled := make(chan any, 2)
	crasher := sup.MustSpawn("crasher", func() Behavior {
		return func(ctx *Context, msg any) {
			if msg == "boom" {
				panic("boom")
			}
			handled <- msg
		}
	})
	sibling := sup.MustSpawn("sibling", func() Behavior {
		return func(ctx *Context, msg any) { handled <- msg }
	})
	crasher.Tell("boom")
	crasher.Tell("after") // queued behind the crash: waits out the backoff
	sibling.Tell("hello")
	next := func() any {
		select {
		case m := <-handled:
			return m
		case <-time.After(10 * time.Second):
			t.Fatal("no message handled")
			return nil
		}
	}
	if got := next(); got != "hello" {
		t.Fatalf("first handled %v, want the sibling's hello", got)
	}
	if n := sys.Restarts(); n != 0 {
		t.Fatalf("restarts = %d when the sibling ran: it waited out the backoff", n)
	}
	select {
	case <-restarted:
	case <-time.After(10 * time.Second):
		t.Fatal("the crasher never restarted")
	}
	if got := next(); got != "after" {
		t.Fatalf("after the restart handled %v, want the crasher's queued message", got)
	}
	sys.Shutdown()
}

// TestBackoffParkKeepsFIFOAndConservation: a crash parks the cell with the
// rest of its batch set aside, and a microsecond backoff lets the timer
// re-queue the cell onto the other worker almost at once. The set-aside
// messages must still run before newer mail (per-sender FIFO), and none may
// go missing (the conservation ledger). Run it under -race: the worker that
// parks and the worker that resumes must be ordered by the run queue.
func TestBackoffParkKeepsFIFOAndConservation(t *testing.T) {
	obs := NewObs(metrics.NewRegistry(), "actors")
	obs.Conserve = true
	sys := NewSystem(Config{PoolSize: 2, Throughput: 256, Obs: obs})
	sup := sys.Supervise("root", SupervisorSpec{
		MaxRestarts: 1 << 30,
		Backoff:     time.Microsecond,
		MaxBackoff:  time.Microsecond,
	})
	const total, crashEvery = 20000, 64
	var (
		mu   sync.Mutex
		got  []int
		done = make(chan struct{})
	)
	want := total - total/crashEvery
	ref := sup.MustSpawn("crasher", func() Behavior {
		return func(ctx *Context, msg any) {
			i := msg.(int)
			if i%crashEvery == crashEvery-1 {
				panic("boom")
			}
			mu.Lock()
			got = append(got, i)
			if len(got) == want {
				close(done)
			}
			mu.Unlock()
		}
	})
	for i := 0; i < total; i++ {
		ref.Tell(i)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("handled %d of %d messages: set-aside messages were lost", n, want)
	}
	sys.Shutdown()
	for k := 1; k < len(got); k++ {
		if got[k] <= got[k-1] {
			t.Fatalf("message %d handled after %d: per-sender FIFO broken across a park", got[k], got[k-1])
		}
	}
	if n := sys.Restarts(); n != total/crashEvery {
		t.Fatalf("restarts = %d, want %d", n, total/crashEvery)
	}
	if err := sys.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEscalationBackoffFreesWorker is the same property for a subtree
// escalation: the parent's backoff before the group restart parks the
// failed child instead of its worker, and the group restart then respawns
// it under a fresh Ref.
func TestEscalationBackoffFreesWorker(t *testing.T) {
	sys := NewSystem(Config{PoolSize: 1})
	respawned := make(chan struct{}, 1)
	root := sys.Supervise("root", SupervisorSpec{MaxRestarts: 1, Backoff: time.Second})
	group, err := root.Subtree("group", SupervisorSpec{
		OnEvent: func(ev LifecycleEvent) {
			if ev.Kind == LifecycleStarted {
				select {
				case respawned <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bomb := group.MustSpawn("bomb", func() Behavior {
		return func(ctx *Context, msg any) { panic("boom") }
	})
	<-respawned // the initial start
	handled := make(chan any, 1)
	sibling := root.MustSpawn("sibling", func() Behavior {
		return func(ctx *Context, msg any) { handled <- msg }
	})
	bomb.Tell("boom") // group budget 0: escalates, root backs off 1s
	sibling.Tell("hello")
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("sibling never handled its message")
	}
	if fresh, _ := group.Child("bomb"); fresh.ID() != bomb.ID() {
		t.Fatal("the group restarted before the sibling ran: it waited out the backoff")
	}
	select {
	case <-respawned:
	case <-time.After(10 * time.Second):
		t.Fatal("the escalation never respawned the bomb")
	}
	if fresh, alive := group.Child("bomb"); !alive || fresh.ID() == bomb.ID() {
		t.Fatalf("after the group restart bomb = %v alive=%v, want a fresh live Ref", fresh, alive)
	}
	sys.Shutdown()
}
