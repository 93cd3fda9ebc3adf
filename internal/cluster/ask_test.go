package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// remoteGrains returns n grain names that from's view places on other nodes,
// so asking them from from takes a forwarding hop.
func remoteGrains(t *testing.T, from *Cluster, n int) []string {
	t.Helper()
	var names []string
	for i := 0; len(names) < n; i++ {
		if i > 10_000 {
			t.Fatal("no grains owned by other nodes")
		}
		name := fmt.Sprintf("user-%d", i)
		if owner, ok := from.OwnerOf(name); ok && owner != from.Addr() {
			names = append(names, name)
		}
	}
	return names
}

// TestForwardedAsksLeaveNothingBehind is the cluster half of the ask-path
// leak regression test: after N forwarded asks, every node's proxy cache and
// actor table are back at their pre-loop size, and so is the goroutine
// count. Each ask's asker has a fresh ID that the owner turns into a reply
// proxy, so an owner that cached those would grow by N.
func TestForwardedAsksLeaveNothingBehind(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	f := startCluster(t, addrs, echoFactory)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)
	regs := map[string]*metrics.Registry{}
	for addr, c := range f.nodes {
		regs[addr] = metrics.NewRegistry()
		c.System().RegisterMetrics(regs[addr], "sys")
	}
	footprint := func() (proxies, live map[string]int64) {
		proxies, live = map[string]int64{}, map[string]int64{}
		for addr, c := range f.nodes {
			proxies[addr] = c.node.Stats().ProxyRefs
			live[addr], _ = regs[addr].Get("sys.actors")
		}
		return proxies, live
	}
	c1 := f.nodes["n1"]
	grains := remoteGrains(t, c1, 8)
	ask := func(name string) {
		rep, err := actors.AskRetry(c1.System(), c1.RefFor(name), WhoAmI{}, testRetry)
		if err != nil {
			t.Fatalf("ask %s: %v", name, err)
		}
		if at, ok := rep.(HostedAt); !ok || at.Grain != name || at.Node == "n1" {
			t.Fatalf("ask %s replied %#v, want a grain hosted off n1", name, rep)
		}
	}
	// Warm up: every grain activated, every link up.
	for _, name := range grains {
		ask(name)
	}
	proxies0, live0 := footprint()
	goroutines0 := runtime.NumGoroutine()

	const N = 400
	for i := 0; i < N; i++ {
		ask(grains[i%len(grains)])
	}
	proxies1, live1 := footprint()
	for _, addr := range addrs {
		if proxies1[addr] != proxies0[addr] {
			t.Fatalf("%s: proxy cache grew over %d forwarded asks: %d -> %d", addr, N, proxies0[addr], proxies1[addr])
		}
		if live1[addr] != live0[addr] {
			t.Fatalf("%s: actor table grew over %d forwarded asks: %d -> %d", addr, N, live0[addr], live1[addr])
		}
	}
	// Heartbeat and credit-watcher goroutines come and go; give them a
	// moment to settle before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines0 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew over %d forwarded asks: %d -> %d", N, goroutines0, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedForwardedAsk: with every message sampled, a forwarded cluster
// ask ends in a reply span sealed at the asker's reply slot — finished, not
// dead, its ledger telescoping exactly — and its trace is complete, crosses
// nodes, and its ledger covers its end-to-end time.
func TestTracedForwardedAsk(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	tracers := map[string]*trace.Tracer{}
	f := startCluster(t, addrs, echoFactory, func(c *Config) {
		tr := trace.NewTracer(1, 0)
		tr.SetNode(c.ListenAddr)
		tracers[c.ListenAddr] = tr
		c.System = actors.NewSystem(actors.Config{Tracer: tr})
	})
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)
	c1 := f.nodes["n1"]
	name := remoteGrains(t, c1, 1)[0]
	ask := func() {
		if _, err := actors.AskRetry(c1.System(), c1.RefFor(name), WhoAmI{}, testRetry); err != nil {
			t.Fatalf("ask %s: %v", name, err)
		}
	}
	// Each direction learns span migration from its own link's hello-ack;
	// until the owner's link back to n1 has, reply spans end at its wire
	// boundary.
	// Ask until a reply span lands on n1, then check the next ask.
	waitUntil(t, 5*time.Second, "a reply span on the asking node", func() bool {
		ask()
		for _, v := range tracers["n1"].Spans() {
			if v.Actor == "ask-reply" {
				return true
			}
		}
		return false
	})
	ask()
	var reply trace.SpanView
	for _, v := range tracers["n1"].Spans() {
		if v.Actor == "ask-reply" && v.Start > reply.Start {
			reply = v
		}
	}
	if reply.End == 0 || reply.Dead != "" || reply.StageSum() != int64(reply.Duration()) {
		t.Fatalf("reply span not sealed cleanly: %+v", reply)
	}
	waitUntil(t, 5*time.Second, "the reply's trace to complete", func() bool {
		var all []trace.SpanView
		for _, tr := range tracers {
			all = append(all, tr.Spans()...)
		}
		for _, tv := range trace.AssembleTraces(all) {
			if tv.Trace == reply.Trace && tv.CrossNode() && tv.Complete() {
				if c := tv.Coverage(); c < 1-1e-9 {
					t.Fatalf("trace coverage %.3f < 1: %+v", c, tv)
				}
				return true
			}
		}
		return false
	})
}
