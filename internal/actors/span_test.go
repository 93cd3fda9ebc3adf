package actors

import (
	"os"
	"testing"
	"time"

	"repro/internal/trace"
)

func waitSpans(t *testing.T, tr *trace.Tracer, n int) []trace.SpanView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if spans := tr.Spans(); len(spans) >= n {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracer never collected %d spans (have %d)", n, len(tr.Spans()))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedTellLocal pins origination and the local ledger: a Tell into a
// traced system originates a root span that closes its mailbox stage at
// dequeue and its handler stage at return, telescoping exactly.
func TestTracedTellLocal(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	tr.SetNode("local")
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	done := make(chan struct{}, 1)
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		if ctx.Span() == nil {
			t.Error("handler sees no span on a traced delivery")
		}
		done <- struct{}{}
	})
	sink.Tell("hello")
	<-done
	v := waitSpans(t, tr, 1)[0]
	if v.Actor != "sink" || v.Msg != "string" || v.Node != "local" {
		t.Fatalf("span identity wrong: %+v", v)
	}
	if v.End == 0 || v.Dead != "" {
		t.Fatalf("span not sealed delivered: %+v", v)
	}
	if v.Stages[trace.StageMailbox] <= 0 || v.Stages[trace.StageHandler] <= 0 {
		t.Fatalf("mailbox/handler stages empty: %v", v.Stages)
	}
	if v.StageSum() != int64(v.Duration()) {
		t.Fatalf("ledger does not telescope: sum %d, duration %d", v.StageSum(), v.Duration())
	}
}

// TestTracedChildSpans: an in-handler Send continues the trace — the
// downstream hop carries the same TraceID with Parent linking to the
// upstream span.
func TestTracedChildSpans(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	done := make(chan struct{}, 1)
	second := sys.MustSpawn("second", func(ctx *Context, msg any) { done <- struct{}{} })
	first := sys.MustSpawn("first", func(ctx *Context, msg any) { ctx.Send(second, msg) })
	first.Tell(42)
	<-done
	spans := waitSpans(t, tr, 2)
	byActor := map[string]trace.SpanView{}
	for _, v := range spans {
		byActor[v.Actor] = v
	}
	f, s := byActor["first"], byActor["second"]
	if f.Trace != s.Trace {
		t.Fatalf("child did not continue the trace: %x vs %x", f.Trace, s.Trace)
	}
	if s.Parent != f.ID {
		t.Fatalf("child parent = %x, want first's ID %x", s.Parent, f.ID)
	}
}

// TestTracedDeadLetterSealsSpan: a traced message that deadletters seals
// its span with the deadletter kind, so a trace that died stays
// inspectable, attributed up to the loss point.
func TestTracedDeadLetterSealsSpan(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	dead := sys.MustSpawn("dead", func(ctx *Context, msg any) {})
	sys.Stop(dead)
	sys.Await(dead)
	dead.Tell("late")
	v := waitSpans(t, tr, 1)[0]
	if v.Dead != DLDead.String() {
		t.Fatalf("span dead kind = %q, want %q", v.Dead, DLDead.String())
	}
}

// TestUntracedSystemOriginatesNothing: without a Tracer no spans exist and
// the handler sees none — the zero-cost default.
func TestUntracedSystemOriginatesNothing(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{}, 1)
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		if ctx.Span() != nil {
			t.Error("untraced system delivered a span")
		}
		done <- struct{}{}
	})
	sink.Tell("x")
	<-done
	if sink.sys.Tracer() != nil {
		t.Fatal("system has a tracer")
	}
}

// TestTraceOverheadSmoke is the CI bound for the tracing tentpole: with
// default 1-in-64 sampling, the traced Tell path must stay within 1.5x of
// the untraced baseline (the generous CI multiple of the issue's target,
// same rationale as TestInstrumentationOverheadSmoke). Opt-in via
// TRACE_OVERHEAD_SMOKE=1; see .github/workflows/ci.yml.
func TestTraceOverheadSmoke(t *testing.T) {
	if os.Getenv("TRACE_OVERHEAD_SMOKE") == "" {
		t.Skip("set TRACE_OVERHEAD_SMOKE=1 to run the overhead bound")
	}
	const senders, msgs, reps = 8, 20000, 5
	best := func(cfg Config) float64 {
		b := tellThroughputOnce(cfg, senders, msgs) // warmup
		for i := 0; i < reps; i++ {
			if v := tellThroughputOnce(cfg, senders, msgs); v < b {
				b = v
			}
		}
		return b
	}
	plain := best(Config{})
	sampled := best(Config{Tracer: trace.NewTracer(64, 0)})
	every := best(Config{Tracer: trace.NewTracer(1, 0)})
	t.Logf("untraced %.1f ns/op, 1/64 sampled %.1f ns/op (%.1f%%), every-message %.1f ns/op (%.1f%%)",
		plain, sampled, 100*(sampled-plain)/plain, every, 100*(every-plain)/plain)
	if sampled > plain*1.5 {
		t.Fatalf("1/64-sampled Tell %.1f ns/op exceeds 1.5x untraced %.1f ns/op", sampled, plain)
	}
}
