package remote

import (
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/trace"
)

// traceNodeSystem builds an actor system for one side of the matrix,
// traced (sampling every message) or not.
func traceNodeSystem(addr string, traced bool) (*actors.System, *trace.Tracer) {
	if !traced {
		return actors.NewSystem(actors.Config{}), nil
	}
	tr := trace.NewTracer(1, 0)
	tr.SetNode(addr)
	return actors.NewSystem(actors.Config{Tracer: tr}), tr
}

// TestTraceInteropMatrix runs traced and untraced peers against each other.
// In every pairing all payloads must round trip unchanged and the link must
// stay in sync (a misplaced span section would desync the streaming decoder
// and kill the connection, so sustained delivery IS the header-integrity
// assertion). Span migration must happen exactly when both ends are traced:
// the hello-ack's traced flag is the only per-node capability left.
func TestTraceInteropMatrix(t *testing.T) {
	pairs := []struct {
		name             string
		tracedA, tracedB bool
	}{
		{"traced-untraced", true, false},
		{"untraced-traced", false, true},
		{"traced-traced", true, true},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			var trA, trB *trace.Tracer
			a, b, _ := twoMemNodes(t, func(c *Config) {
				if c.ListenAddr == "A" {
					c.System, trA = traceNodeSystem("A", pair.tracedA)
				} else {
					c.System, trB = traceNodeSystem("B", pair.tracedB)
				}
			})
			echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
				if p, ok := msg.(tPing); ok {
					ctx.Reply(tPong{N: p.N})
				}
			})
			b.Register("echo", echo)
			ref, err := a.RefFor("echo@B")
			if err != nil {
				t.Fatal(err)
			}
			// Dozens of envelopes cross each way after the hello-acks.
			for i := 0; i < 60; i++ {
				reply, err := actors.Ask(a.System(), ref, tPing{N: i}, 5*time.Second)
				if err != nil {
					t.Fatalf("ask %d: %v", i, err)
				}
				if p, ok := reply.(tPong); !ok || p.N != i {
					t.Fatalf("ask %d: reply = %#v, want tPong{%d}", i, reply, i)
				}
			}

			if pair.tracedA && pair.tracedB {
				// The request span must have migrated: it finishes on B
				// (the echo handler's node) carrying wire-stage time,
				// and the same (Trace, ID) must NOT also finish on A —
				// the span moves, it does not fork.
				deadline := time.Now().Add(5 * time.Second)
				for {
					if hasMigratedSpan(trB, "B") {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("no migrated span reached B's ring: %d spans", len(trB.Spans()))
					}
					time.Sleep(time.Millisecond)
				}
				seen := map[[2]uint64]string{}
				for _, sv := range append(trA.Spans(), trB.Spans()...) {
					key := [2]uint64{sv.Trace, sv.ID}
					if prev, dup := seen[key]; dup && prev != sv.Node {
						t.Fatalf("span %016x/%x finished on both %s and %s (forked, not migrated)",
							sv.Trace, sv.ID, prev, sv.Node)
					}
					seen[key] = sv.Node
				}
			} else {
				// No pairing with an untraced end may leak a span across:
				// every finished span sits in the ring of the node that
				// originated it, stamped with that node's own name.
				for name, tr := range map[string]*trace.Tracer{"A": trA, "B": trB} {
					if tr == nil {
						continue
					}
					if len(tr.Spans()) == 0 && name == "A" && pair.tracedA {
						t.Fatalf("traced sender %s collected no spans at all", name)
					}
					for _, sv := range tr.Spans() {
						if sv.Node != name {
							t.Fatalf("span %016x/%x in %s's ring carries node %q — crossed to an untraced peer",
								sv.Trace, sv.ID, name, sv.Node)
						}
					}
				}
			}
		})
	}
}

// hasMigratedSpan reports whether tr's ring holds a span that finished on
// node (Adopt stamps the receiving node) with wire-stage time — the
// signature of a span that crossed the wire inside an envelope.
func hasMigratedSpan(tr *trace.Tracer, node string) bool {
	for _, sv := range tr.Spans() {
		if sv.Node == node && sv.Stages[trace.StageWire] > 0 && sv.Dead == "" {
			return true
		}
	}
	return false
}
