package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/remote"
)

// Test message types cross the wire, so exported fields + gob registration.

// WhoAmI asks a grain which node hosts it.
type WhoAmI struct{}

// HostedAt is the reply: the grain's name and its host node address.
type HostedAt struct {
	Grain string
	Node  string
}

// Inc is one idempotent client operation: client Client's Seq'th increment.
type Inc struct {
	Client int
	Seq    int
}

// IncAck acknowledges an Inc.
type IncAck struct {
	Seq int
}

func init() {
	remote.RegisterType(WhoAmI{})
	remote.RegisterType(HostedAt{})
	remote.RegisterType(Inc{})
	remote.RegisterType(IncAck{})
}

// testFixture is a MemNetwork cluster with fast liveness clocks.
type testFixture struct {
	net   *remote.MemNetwork
	nodes map[string]*Cluster
}

// echoFactory hosts grains that report their host node.
func echoFactory(addr string) GrainFactory {
	return func(name string) actors.Behavior {
		return func(ctx *actors.Context, msg any) {
			if _, ok := msg.(WhoAmI); ok {
				ctx.Reply(HostedAt{Grain: name, Node: addr})
			}
		}
	}
}

// ledger records every Inc any grain instance ever processed, deduplicated
// by (client, seq). It is shared across activations — including the
// reactivation after a handoff — so the test can count distinct deliveries
// exactly even though grain-local state dies with the grain.
type ledger struct {
	mu   sync.Mutex
	seen map[[2]int]int // (client, seq) → deliveries
}

func newLedger() *ledger { return &ledger{seen: map[[2]int]int{}} }

func (l *ledger) record(client, seq int) {
	l.mu.Lock()
	l.seen[[2]int{client, seq}]++
	l.mu.Unlock()
}

func (l *ledger) distinct() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seen)
}

// counterFactory hosts idempotent counter grains backed by the shared ledger.
func counterFactory(l *ledger) GrainFactory {
	return func(name string) actors.Behavior {
		return func(ctx *actors.Context, msg any) {
			if inc, ok := msg.(Inc); ok {
				l.record(inc.Client, inc.Seq)
				ctx.Reply(IncAck{Seq: inc.Seq})
			}
		}
	}
}

// startCluster builds a fixture with the given addresses, all seeded with
// each other. factory(addr) supplies each node's grain factory; each opt, if
// any, adjusts every node's config.
func startCluster(t *testing.T, addrs []string, factory func(addr string) GrainFactory, opts ...func(*Config)) *testFixture {
	t.Helper()
	net := remote.NewMemNetwork()
	f := &testFixture{net: net, nodes: map[string]*Cluster{}}
	for i, addr := range addrs {
		cfg := Config{
			ListenAddr:        addr,
			Transport:         net.Endpoint(addr),
			Seeds:             addrs,
			Shards:            32,
			Grain:             factory(addr),
			HeartbeatInterval: 2 * time.Millisecond,
			SuspectAfter:      60 * time.Millisecond,
			Seed:              int64(i + 1),
		}
		for _, opt := range opts {
			opt(&cfg)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("cluster %s: %v", addr, err)
		}
		f.nodes[addr] = c
	}
	t.Cleanup(func() {
		for _, c := range f.nodes {
			c.Close()
		}
	})
	return f
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitLinksSettled waits until every node's dial-out links are up, every
// node is quorate, and both have held, with no heartbeat timeout anywhere,
// for hold. A freshly dialed link is the likeliest to time out: the fixture's
// 8 ms heartbeat timeout is short next to the scheduling stalls of a loaded
// 2-core machine at start-up, and a node whose links both time out loses
// quorum and deposes what it just activated. Tests that count activations
// start once the links are past that window.
func (f *testFixture) waitLinksSettled(t *testing.T, hold time.Duration) {
	t.Helper()
	var since time.Time
	timeouts := int64(-1)
	waitUntil(t, 10*time.Second, "links to settle", func() bool {
		settled := true
		var now int64
		for _, c := range f.nodes {
			now += c.Node().Stats().HeartbeatTimeouts
			links := c.Node().Links()
			settled = settled && c.Quorate() && len(links) == len(f.nodes)-1
			for _, l := range links {
				settled = settled && l.State == "up"
			}
		}
		if !settled || now != timeouts {
			timeouts, since = now, time.Time{}
			return false
		}
		if since.IsZero() {
			since = time.Now()
		}
		return time.Since(since) >= hold
	})
}

// converged reports whether every node sees every address alive.
func (f *testFixture) converged() bool {
	for _, c := range f.nodes {
		ms, _ := c.Members()
		alive := 0
		for _, m := range ms {
			if m.State == StateAlive {
				alive++
			}
		}
		if alive != len(f.nodes) {
			return false
		}
	}
	return true
}

var testRetry = actors.RetryConfig{
	Attempts:   200,
	Timeout:    250 * time.Millisecond,
	Backoff:    time.Millisecond,
	MaxBackoff: 20 * time.Millisecond,
	Jitter:     0.2,
	Budget:     30 * time.Second,
}

func TestClusterFormsAndPlacesGrains(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	f := startCluster(t, addrs, echoFactory)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)

	// Placement must agree across every node's view.
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("user-%d", i)
		want, ok := f.nodes["n1"].OwnerOf(name)
		if !ok {
			t.Fatalf("no owner for %s", name)
		}
		for _, c := range f.nodes {
			if got, _ := c.OwnerOf(name); got != want {
				t.Fatalf("%s: %s places %s on %s, n1 on %s", name, c.Addr(), name, got, want)
			}
		}
	}

	// Asks from one node activate each grain on its ring owner, wherever
	// that is — the proxy is location-transparent.
	c1 := f.nodes["n1"]
	hostedOn := map[string]int{}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("user-%d", i)
		rep, err := actors.AskRetry(c1.System(), c1.RefFor(name), WhoAmI{}, testRetry)
		if err != nil {
			t.Fatalf("ask %s: %v", name, err)
		}
		at, ok := rep.(HostedAt)
		if !ok || at.Grain != name {
			t.Fatalf("ask %s replied %#v", name, rep)
		}
		want, _ := c1.OwnerOf(name)
		if at.Node != want {
			t.Fatalf("%s activated on %s, ring says %s", name, at.Node, want)
		}
		hostedOn[at.Node]++
	}
	if len(hostedOn) < 2 {
		t.Fatalf("64 grains all landed on one node: %v", hostedOn)
	}
	// The shard counts add up: every shard has exactly one owner.
	total := 0
	for _, c := range f.nodes {
		total += len(c.OwnedShards())
	}
	if total != 32 {
		t.Fatalf("owned shards across nodes = %d, want 32", total)
	}
}

func TestSingleActivationAcrossNodes(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	f := startCluster(t, addrs, echoFactory)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)
	// Two heartbeat timeouts (the fixture's is 4 × 2 ms) of settled links.
	f.waitLinksSettled(t, 16*time.Millisecond)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)

	// The same grain asked from all three nodes activates exactly once.
	const name = "user-shared"
	for _, c := range f.nodes {
		if _, err := actors.AskRetry(c.System(), c.RefFor(name), WhoAmI{}, testRetry); err != nil {
			t.Fatalf("ask from %s: %v", c.Addr(), err)
		}
	}
	var activations int64
	hosts := 0
	for _, c := range f.nodes {
		activations += c.CounterSnapshot().Activations
		for _, g := range c.ActiveGrains() {
			if g == name {
				hosts++
			}
		}
	}
	if activations != 1 || hosts != 1 {
		t.Fatalf("activations = %d, hosting nodes = %d, want 1/1", activations, hosts)
	}
}

func TestPassivationAndReactivation(t *testing.T) {
	net := remote.NewMemNetwork()
	var c *Cluster
	c, err := New(Config{
		ListenAddr:        "solo",
		Transport:         net.Endpoint("solo"),
		Shards:            8,
		Grain:             echoFactory("solo"),
		HeartbeatInterval: 2 * time.Millisecond,
		PassivateAfter:    30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := actors.AskRetry(c.System(), c.RefFor("idle-grain"), WhoAmI{}, testRetry); err != nil {
		t.Fatal(err)
	}
	if got := c.CounterSnapshot().Activations; got != 1 {
		t.Fatalf("activations = %d, want 1", got)
	}
	waitUntil(t, 5*time.Second, "passivation", func() bool {
		return c.CounterSnapshot().Passivations == 1 && len(c.ActiveGrains()) == 0
	})
	// The next message transparently reactivates.
	if _, err := actors.AskRetry(c.System(), c.RefFor("idle-grain"), WhoAmI{}, testRetry); err != nil {
		t.Fatal(err)
	}
	if got := c.CounterSnapshot().Activations; got != 2 {
		t.Fatalf("activations after reactivation = %d, want 2", got)
	}
}

func TestSoloNodeIsQuorate(t *testing.T) {
	net := remote.NewMemNetwork()
	c, err := New(Config{
		ListenAddr:        "solo",
		Transport:         net.Endpoint("solo"),
		Shards:            8,
		Grain:             echoFactory("solo"),
		HeartbeatInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Quorate() {
		t.Fatal("a single-node cluster must host (1 of 1 alive)")
	}
	if got := len(c.OwnedShards()); got != 8 {
		t.Fatalf("solo node owns %d/8 shards", got)
	}
}
