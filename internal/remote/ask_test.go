package remote

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// footprint is what a node holds on to between operations: its proxy
// cache, its live actors, and the process's goroutines.
type footprint struct {
	proxies    [2]int64
	actors     [2]int64
	goroutines int
}

func footprintOf(nodes [2]*Node, regs [2]*metrics.Registry) footprint {
	var f footprint
	for i, n := range nodes {
		f.proxies[i] = n.Stats().ProxyRefs
		f.actors[i], _ = regs[i].Get("sys.actors")
	}
	f.goroutines = runtime.NumGoroutine()
	return f
}

// TestRemoteAsksLeaveNothingBehind is the leak regression test for the ask
// path: after N asks across a node pair, each node's proxy cache and actor
// table are back at their pre-loop size, and so is the goroutine count.
// Each ask's asker has a fresh ID, so a node that cached one proxy per
// asker would grow by N.
func TestRemoteAsksLeaveNothingBehind(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)
	nodes := [2]*Node{a, b}
	var regs [2]*metrics.Registry
	for i, n := range nodes {
		regs[i] = metrics.NewRegistry()
		n.System().RegisterMetrics(regs[i], "sys")
	}
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
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	ask := func(i int) {
		reply, err := actors.Ask(a.System(), ref, tPing{N: i}, 5*time.Second)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		if p, ok := reply.(tPong); !ok || p.N != i {
			t.Fatalf("ask %d: reply = %#v", i, reply)
		}
	}
	// Warm up: links, codec sessions and credit state settle first.
	for i := 0; i < 50; i++ {
		ask(i)
	}
	before := footprintOf(nodes, regs)

	const N = 500
	for i := 0; i < N; i++ {
		ask(i)
	}
	after := footprintOf(nodes, regs)
	if after.proxies != before.proxies {
		t.Fatalf("proxy cache grew over %d asks: %v -> %v", N, before.proxies, after.proxies)
	}
	if after.actors != before.actors {
		t.Fatalf("actor tables grew over %d asks: %v -> %v", N, before.actors, after.actors)
	}
	// Heartbeat and credit-watcher goroutines come and go; give them a
	// moment to settle before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before.goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew over %d asks: %d -> %d", N, before.goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedRemoteAsk: with every message sampled, a remote Ask ends in a
// reply span sealed at the asker's reply slot — finished, not dead, its
// ledger telescoping exactly — and the ask's trace is complete, crosses
// both nodes, and its ledger covers its end-to-end time.
func TestTracedRemoteAsk(t *testing.T) {
	trs := map[string]*trace.Tracer{}
	a, b, _ := twoMemNodes(t, func(c *Config) {
		c.System, trs[c.ListenAddr] = traceNodeSystem(c.ListenAddr, true)
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
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Each direction learns span migration from its own link's hello-ack
	// (B dials A for the replies); until both have, spans end at a wire
	// boundary. Ask
	// until a reply span lands on A, then check the next ask.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if _, err := actors.Ask(a.System(), ref, tPing{N: i}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if hasSpanOf(trs["A"], "ask-reply") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no reply span ever reached the asking node")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := actors.Ask(a.System(), ref, tPing{N: -1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	checkTracedAsk(t, trs["A"], trs["B"])
}

// hasSpanOf reports whether tr's ring holds a span of the given actor.
func hasSpanOf(tr *trace.Tracer, actor string) bool {
	for _, v := range tr.Spans() {
		if v.Actor == actor {
			return true
		}
	}
	return false
}

// checkTracedAsk finds the newest reply span on origin (Actor ask-reply)
// and checks it and its trace, waiting for the request span — sealed on the
// far node when its handler returns — to reach other's ring.
func checkTracedAsk(t *testing.T, origin, other *trace.Tracer) {
	t.Helper()
	var reply trace.SpanView
	for _, v := range origin.Spans() {
		if v.Actor == "ask-reply" && v.Start > reply.Start {
			reply = v
		}
	}
	if reply.Start == 0 {
		t.Fatal("no reply span on the asking node")
	}
	if reply.End == 0 || reply.Dead != "" || reply.StageSum() != int64(reply.Duration()) {
		t.Fatalf("reply span not sealed cleanly: %+v", reply)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, tv := range trace.AssembleTraces(append(origin.Spans(), other.Spans()...)) {
			if tv.Trace == reply.Trace && tv.CrossNode() && tv.Complete() {
				if c := tv.Coverage(); c < 1-1e-9 {
					t.Fatalf("trace coverage %.3f < 1: %+v", c, tv)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the reply's trace %016x never became complete and cross-node", reply.Trace)
		}
		time.Sleep(time.Millisecond)
	}
}
