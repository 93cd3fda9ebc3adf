package actors

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
)

func TestAskStoppedActorFailsFast(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	target := sys.MustSpawn("target", func(ctx *Context, msg any) { ctx.Stop() })
	target.Tell("die")
	sys.Await(target)

	start := time.Now()
	_, err := Ask(sys, target, "hello", 5*time.Second)
	if !errors.Is(err, ErrActorStopped) {
		t.Fatalf("Ask(stopped) error = %v, want ErrActorStopped", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Ask(stopped) took %v; should fail fast, not wait out the timeout", elapsed)
	}
	// The temporary reply actor must not leak: once the deadlettered ask
	// returns, the only remaining work is its own teardown.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sys.mu.Lock()
		n := len(sys.actors)
		sys.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d actors still alive; ask-reply actor leaked", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAskNilAndForeignRef(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	other := NewSystem(Config{})
	defer other.Shutdown()
	foreign := other.MustSpawn("foreign", func(ctx *Context, msg any) {})
	if _, err := Ask(sys, nil, 1, time.Second); !errors.Is(err, ErrActorStopped) {
		t.Fatalf("Ask(nil) error = %v", err)
	}
	if _, err := Ask(sys, foreign, 1, time.Second); !errors.Is(err, ErrActorStopped) {
		t.Fatalf("Ask(foreign) error = %v", err)
	}
}

func TestAskRetryRecoversFromDroppedRequests(t *testing.T) {
	// Drop the first two echo requests deterministically; the third attempt
	// succeeds.
	var sent atomic.Int64
	dropFirst2 := injectorFunc(func(op faults.Op) faults.Decision {
		if op.Site == faults.SiteSend && op.Actor == "echo" {
			if sent.Add(1) <= 2 {
				return faults.Decision{Action: faults.ActDrop}
			}
		}
		return faults.Decision{}
	})
	sys := NewSystem(Config{Injector: dropFirst2})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })

	got, err := AskRetry(sys, echo, "ping", RetryConfig{
		Attempts: 5,
		Timeout:  50 * time.Millisecond,
		Backoff:  time.Millisecond,
		Jitter:   0.2,
		Seed:     42,
	})
	if err != nil {
		t.Fatalf("AskRetry error = %v", err)
	}
	if got != "ping" {
		t.Fatalf("AskRetry reply = %v", got)
	}
	if sys.DeadLetters() < 2 {
		t.Fatalf("deadletters = %d, want >= 2 (the dropped requests)", sys.DeadLetters())
	}
}

// injectorFunc adapts a function to faults.Injector for tests.
type injectorFunc func(faults.Op) faults.Decision

func (f injectorFunc) Decide(op faults.Op) faults.Decision { return f(op) }

func TestAskRetryExhaustsAttempts(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	_, err := AskRetry(sys, blackhole, "anyone?", RetryConfig{
		Attempts: 3, Timeout: 5 * time.Millisecond, Backoff: time.Millisecond,
	})
	if !errors.Is(err, ErrAskTimeout) {
		t.Fatalf("AskRetry error = %v, want wrapped ErrAskTimeout", err)
	}
}

func TestAskRetryRespectsBudget(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	start := time.Now()
	_, err := AskRetry(sys, blackhole, "anyone?", RetryConfig{
		Attempts: 1000,
		Timeout:  10 * time.Millisecond,
		Backoff:  time.Millisecond,
		Budget:   50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure")
	}
	if elapsed > time.Second {
		t.Fatalf("AskRetry ran %v; budget of 50ms was not honored", elapsed)
	}
}

// TestAskRetryCtxCancelledMidBackoff is the regression test for the bug
// where AskRetry slept out its entire backoff schedule after the caller had
// already gone away: cancellation must interrupt the sleep, not wait for it.
func TestAskRetryCtxCancelledMidBackoff(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Long backoffs: without ctx support this call sits asleep for ~20s.
		_, err := AskRetryCtx(ctx, sys, blackhole, "anyone?", RetryConfig{
			Attempts: 10,
			Timeout:  10 * time.Millisecond,
			Backoff:  10 * time.Second,
		})
		done <- err
	}()
	// Let the first attempt time out and the backoff sleep begin.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to be honored; backoff sleep was not interrupted", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AskRetryCtx ignored cancellation and kept sleeping")
	}
}

// TestAskRetryCtxCancelledBeforeCall returns immediately without an attempt.
func TestAskRetryCtxCancelledBeforeCall(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var calls atomic.Int64
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) {
		calls.Add(1)
		ctx.Reply(msg)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AskRetryCtx(ctx, sys, echo, 1, RetryConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("cancelled-before-call still made %d attempts", calls.Load())
	}
}

// TestAskRetryCtxCancelledDuringAttempt: cancellation inside the per-attempt
// reply wait also returns promptly.
func TestAskRetryCtxCancelledDuringAttempt(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := AskRetryCtx(ctx, sys, blackhole, 1, RetryConfig{
		Attempts: 2, Timeout: 10 * time.Second, Backoff: time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("took %v; the in-attempt wait ignored cancellation", elapsed)
	}
}

func TestAskRetryFailsFastOnStoppedActor(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	target := sys.MustSpawn("target", func(ctx *Context, msg any) { ctx.Stop() })
	target.Tell("die")
	sys.Await(target)
	start := time.Now()
	_, err := AskRetry(sys, target, 1, RetryConfig{Attempts: 50, Timeout: time.Second, Backoff: time.Millisecond})
	if !errors.Is(err, ErrActorStopped) {
		t.Fatalf("error = %v, want ErrActorStopped", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("AskRetry should not retry a stopped actor")
	}
}

// TestAskReplySlot pins the reply slot: while the ask waits, the asker is a
// Ref named ask-reply that ByID resolves (how a remote reply finds it) but
// that is not an actor; it takes the first reply only, and a second one
// deadletters as if sent to a stopped actor.
func TestAskReplySlot(t *testing.T) {
	sys := NewSystem(Config{})
	var slot *Ref
	twice := sys.MustSpawn("twice", func(ctx *Context, msg any) {
		slot = ctx.Sender()
		if slot.Name() != "ask-reply" || sys.ByID(slot.ID()) != slot || sys.Alive(slot) {
			t.Errorf("waiting asker %v: ByID = %v, Alive = %v", slot, sys.ByID(slot.ID()), sys.Alive(slot))
		}
		ctx.Reply("first")
		ctx.Reply("second")
	})
	got, err := Ask(sys, twice, "go", time.Second)
	if err != nil || got != "first" {
		t.Fatalf("Ask = %v, %v; want the first reply", got, err)
	}
	sys.Shutdown()
	if n := sys.DeadLettersOf(DLDead); n != 1 {
		t.Fatalf("DLDead = %d, want 1 (the second reply)", n)
	}
	if sys.ByID(slot.ID()) != nil {
		t.Fatal("ByID still resolves the slot after the ask returned")
	}
}

// TestAskLateReplyDeadletters: a reply that arrives after the ask timed out
// finds the slot closed and deadletters; no actor is left behind.
func TestAskLateReplyDeadletters(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	held := make(chan *Ref, 1)
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) { held <- ctx.Sender() })
	if _, err := Ask(sys, sink, "hold", 10*time.Millisecond); !errors.Is(err, ErrAskTimeout) {
		t.Fatalf("Ask error = %v, want ErrAskTimeout", err)
	}
	slot := <-held
	if sys.ByID(slot.ID()) != nil {
		t.Fatal("ByID resolves the slot of an ask that timed out")
	}
	slot.Tell("late")
	if n := sys.DeadLettersOf(DLDead); n != 1 {
		t.Fatalf("DLDead = %d, want 1 (the late reply)", n)
	}
	sys.mu.Lock()
	n := len(sys.actors)
	sys.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d actors alive, want only the sink", n)
	}
}

// TestAskReplyRecordedAndTraced: the reply keeps its send/receive pair in the
// Recorder (the receive on the ask-reply task), and a traced reply's span is
// sealed at the slot — finished, not dead, its ledger telescoping exactly.
func TestAskReplyRecordedAndTraced(t *testing.T) {
	rec := trace.NewRecorder()
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Recorder: rec, Tracer: tr})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	if _, err := Ask(sys, echo, 7, time.Second); err != nil {
		t.Fatal(err)
	}
	var sends, receives int
	for _, ev := range rec.Events() {
		if !strings.HasPrefix(ev.Object, "actor(ask-reply#") {
			continue
		}
		switch ev.Kind {
		case trace.KindSend:
			sends++
		case trace.KindReceive:
			receives++
			if !strings.HasPrefix(ev.Task, "actor(ask-reply#") {
				t.Fatalf("reply received by %q, want the ask-reply task", ev.Task)
			}
		}
	}
	if sends != 1 || receives != 1 {
		t.Fatalf("reply events: %d sends, %d receives; want 1 each", sends, receives)
	}
	for _, v := range waitSpans(t, tr, 2) {
		if v.Actor != "ask-reply" {
			continue
		}
		if v.End == 0 || v.Dead != "" || v.StageSum() != int64(v.Duration()) {
			t.Fatalf("reply span not sealed cleanly: %+v", v)
		}
		return
	}
	t.Fatal("no reply span")
}

// TestAskAllocs pins the allocation cost of an ask. The bound is the count
// measured when the reply slot replaced the per-ask reply actor: 2 (the
// slot and its done channel; the timeout timer is recycled). A successful
// AskRetry with jitter costs the same: its RNG is seeded only on a retry.
func TestAskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	const bound = 2
	if n := testing.AllocsPerRun(500, func() {
		if _, err := Ask(sys, echo, 1, time.Second); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Errorf("Ask: %v allocs per call, want <= %d", n, bound)
	}
	rc := RetryConfig{Attempts: 3, Timeout: time.Second, Jitter: 0.2, Seed: 9}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := AskRetry(sys, echo, 1, rc); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Errorf("AskRetry: %v allocs per call, want <= %d", n, bound)
	}
}

// TestAskReplySlotsConcurrent races many asks, some with timeouts short
// enough to lose to their replies, against a target that answers every
// request twice. No ask may see another's reply, every reply a slot did not
// accept deadletters, and no slot outlives its ask.
func TestAskReplySlotsConcurrent(t *testing.T) {
	sys := NewSystem(Config{})
	twice := sys.MustSpawn("twice", func(ctx *Context, msg any) {
		ctx.Reply(msg)
		ctx.Reply(msg)
	})
	const askers, perAsker = 8, 200
	var answered atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAsker; i++ {
				timeout := time.Second
				if i%2 == 1 {
					timeout = time.Microsecond
				}
				want := a*perAsker + i
				got, err := Ask(sys, twice, want, timeout)
				switch {
				case err == nil && got == want:
					answered.Add(1)
				case err == nil:
					t.Errorf("ask %d got reply %v", want, got)
				case !errors.Is(err, ErrAskTimeout):
					t.Errorf("ask %d: %v", want, err)
				}
			}
		}(a)
	}
	wg.Wait()
	sys.Shutdown() // drains the target: every request has been answered twice
	if dead, want := sys.DeadLettersOf(DLDead), 2*askers*perAsker-answered.Load(); dead != want {
		t.Fatalf("DLDead = %d, want %d (every reply no slot accepted)", dead, want)
	}
	if n := len(sys.slots.m); n != 0 {
		t.Fatalf("%d reply slots left open", n)
	}
}
