package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/trace"
)

// killRetry is tuned to ride through a handoff: timeouts short enough that
// retries land inside the suspicion window (exercising the parking buffer),
// budget generous enough that every operation eventually completes.
var killRetry = actors.RetryConfig{
	Attempts:   5000,
	Timeout:    30 * time.Millisecond,
	Backoff:    time.Millisecond,
	MaxBackoff: 10 * time.Millisecond,
	Jitter:     0.2,
	Budget:     60 * time.Second,
}

// fencingLedger is the single-writer oracle. Every grain activation gets a
// unique instance ID; every processed Inc appends that ID to the grain's
// writer history. Single-writer placement holds iff each history is a
// sequence of contiguous blocks: once instance B writes, a previously-seen
// instance A may never write again (an A,B,A interleave means a deposed
// activation acted concurrently with its successor — exactly the overlap
// incarnation fencing must prevent). Unlike sampling ActiveGrains across
// nodes, this cannot false-positive on a handoff that happens between two
// reads: it records the real order of effects.
type fencingLedger struct {
	mu      sync.Mutex
	seen    map[[2]int]int   // (client, seq) → deliveries (dedup ledger)
	last    map[string]int64 // grain → current writer instance
	retired map[string]map[int64]bool
	viol    []string
	// violN counts repeats of each violation, reported once with its count.
	violN map[string]int
}

func newFencingLedger() *fencingLedger {
	return &fencingLedger{
		seen:    map[[2]int]int{},
		last:    map[string]int64{},
		retired: map[string]map[int64]bool{},
		violN:   map[string]int{},
	}
}

func (l *fencingLedger) write(grain string, inst int64, client, seq int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen[[2]int{client, seq}]++
	prev, ok := l.last[grain]
	if !ok {
		l.last[grain] = inst
		return
	}
	if prev == inst {
		return
	}
	if l.retired[grain][inst] {
		v := fmt.Sprintf("grain %s: retired instance %d wrote after instance %d took over", grain, inst, prev)
		if l.violN[v] == 0 {
			l.viol = append(l.viol, v)
		}
		l.violN[v]++
		return
	}
	if l.retired[grain] == nil {
		l.retired[grain] = map[int64]bool{}
	}
	l.retired[grain][prev] = true
	l.last[grain] = inst
}

func (l *fencingLedger) distinct() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seen)
}

func (l *fencingLedger) deliveries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.seen {
		n += c
	}
	return n
}

func (l *fencingLedger) violations() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.viol))
	for i, v := range l.viol {
		out[i] = fmt.Sprintf("%s (%d writes)", v, l.violN[v])
	}
	return out
}

// fencedCounterFactory builds counter grains wired to the fencing ledger.
// Each activation draws a fresh instance ID.
func fencedCounterFactory(led *fencingLedger, instSeq *atomic.Int64) func(addr string) GrainFactory {
	return func(addr string) GrainFactory {
		return func(name string) actors.Behavior {
			inst := instSeq.Add(1)
			return func(ctx *actors.Context, msg any) {
				switch m := msg.(type) {
				case Inc:
					led.write(name, inst, m.Client, m.Seq)
					ctx.Reply(IncAck{Seq: m.Seq})
				case WhoAmI:
					ctx.Reply(HostedAt{Grain: name, Node: addr})
				}
			}
		}
	}
}

// TestKillNodeRebalanceUnderLoad is the acceptance rebalance test: kill one
// of three nodes mid-load and assert (a) every client operation still
// completes exactly once by the dedup ledger, (b) every grain the victim
// hosted reactivates on a surviving owner, (c) the victim fences itself the
// moment it loses quorum, (d) no deposed activation ever acts concurrently
// with its successor, and (e) the attached concurrency-bug detectors report
// no orphaned protocols once the retries land.
func TestKillNodeRebalanceUnderLoad(t *testing.T) {
	rec := trace.NewRecorder()
	suite := detect.New()
	suite.Attach(rec)
	actors.SetDefaultRecorder(rec)
	t.Cleanup(func() { actors.SetDefaultRecorder(nil) })

	led := newFencingLedger()
	var instSeq atomic.Int64
	addrs := []string{"n1", "n2", "n3"}
	f := startCluster(t, addrs, fencedCounterFactory(led, &instSeq))
	part := faults.NewPartition()
	f.net.SetInjector(part)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)

	const (
		clients = 12
		opsHalf = 20
		victim  = "n3"
	)
	grainName := func(c int) string { return fmt.Sprintf("counter-%d", c) }

	// The ring must place at least one driven grain on the node we kill, or
	// the test exercises nothing.
	victimGrains := 0
	for c := 0; c < clients; c++ {
		if owner, ok := f.nodes["n1"].OwnerOf(grainName(c)); ok && owner == victim {
			victimGrains++
		}
	}
	if victimGrains == 0 {
		t.Fatal("ring placed no test grain on the victim — pick different names")
	}

	// Phase 1: all clients complete opsHalf operations against the healthy
	// cluster (activating their grains wherever the ring placed them). Then
	// the victim is isolated and phase 2 drives the same grains through the
	// handoff. Clients run from the two survivors only.
	var phase1 sync.WaitGroup
	phase1.Add(clients)
	killed := make(chan struct{})
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			drv := f.nodes[addrs[c%2]]
			ref := drv.RefFor(grainName(c))
			for seq := 0; seq < 2*opsHalf; seq++ {
				if seq == opsHalf {
					phase1.Done()
					<-killed
				}
				rep, err := actors.AskRetry(drv.System(), ref, Inc{Client: c, Seq: seq}, killRetry)
				if err != nil {
					errs <- fmt.Errorf("client %d seq %d: %w", c, seq, err)
					return
				}
				if ack, ok := rep.(IncAck); !ok || ack.Seq != seq {
					errs <- fmt.Errorf("client %d seq %d: bad ack %#v", c, seq, rep)
					return
				}
			}
			errs <- nil
		}(c)
	}
	phase1.Wait()
	part.Isolate(victim)
	close(killed)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The ledger holds exactly: every offered operation was delivered and
	// acknowledged at least once, and the dedup count equals offers — the
	// at-most-once retries explain any surplus deliveries.
	offered := clients * 2 * opsHalf
	if got := led.distinct(); got != offered {
		t.Fatalf("distinct deliveries = %d, offered = %d", got, offered)
	}
	if dup := led.deliveries() - offered; dup > 0 {
		t.Logf("%d duplicate deliveries absorbed by idempotent grains (retry after lost ack)", dup)
	}

	// The victim fenced itself: quorum lost, every activation deposed.
	vic := f.nodes[victim]
	waitUntil(t, 5*time.Second, "victim self-fencing", func() bool {
		return !vic.Quorate() && len(vic.ActiveGrains()) == 0
	})
	if got := vic.CounterSnapshot().HandoffsOut; got < int64(victimGrains) {
		t.Fatalf("victim deposed %d grains, hosted at least %d", got, victimGrains)
	}

	// Survivors declared it dead and split the whole ring between them.
	waitUntil(t, 5*time.Second, "survivors declare victim dead", func() bool {
		for _, a := range addrs[:2] {
			ms, _ := f.nodes[a].Members()
			if stateOf(ms, victim) != StateDead {
				return false
			}
		}
		return true
	})
	if n := len(f.nodes["n1"].OwnedShards()) + len(f.nodes["n2"].OwnedShards()); n != 32 {
		t.Fatalf("survivors own %d/32 shards", n)
	}

	// Every grain reactivates on a surviving owner.
	c1 := f.nodes["n1"]
	for c := 0; c < clients; c++ {
		rep, err := actors.AskRetry(c1.System(), c1.RefFor(grainName(c)), WhoAmI{}, killRetry)
		if err != nil {
			t.Fatalf("post-kill WhoAmI %s: %v", grainName(c), err)
		}
		if at := rep.(HostedAt); at.Node == victim {
			t.Fatalf("grain %s still claims dead host %s", grainName(c), victim)
		}
	}

	// Single-writer placement held throughout: no deposed activation wrote
	// after its successor took over.
	if viol := led.violations(); len(viol) > 0 {
		t.Fatalf("fencing violations:\n%s", viol)
	}

	// The handoff machinery was actually exercised: messages parked during
	// the suspicion window and flushed to the new owners.
	var parked, flushed int64
	for _, c := range f.nodes {
		s := c.CounterSnapshot()
		parked += s.Parked
		flushed += s.ParkedFlush
	}
	if parked == 0 || flushed == 0 {
		t.Fatalf("handoff buffering never engaged: parked=%d flushed=%d", parked, flushed)
	}

	// Once the retries land, the detectors see a clean protocol: no
	// orphaned asks/acks, no stale-behavior dispatches.
	for _, fd := range suite.Findings() {
		t.Errorf("detector finding: %s", fd)
	}
}

// TestPartitionSawtoothFencing flaps one node through repeated
// isolate/heal cycles while load runs, asserting the cluster never yields
// two live activations of the same grain (the fencing oracle), that every
// operation completes exactly once, and that the flapping node's
// incarnation grew — i.e. it was declared dead, refuted the claim, and was
// readmitted under a higher incarnation rather than resurrecting stale
// state.
func TestPartitionSawtoothFencing(t *testing.T) {
	led := newFencingLedger()
	var instSeq atomic.Int64
	addrs := []string{"n1", "n2", "n3"}
	f := startCluster(t, addrs, fencedCounterFactory(led, &instSeq))
	part := faults.NewPartition()
	f.net.SetInjector(part)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)

	const (
		clients = 8
		flappy  = "n3"
		cycles  = 3
	)
	grainName := func(c int) string { return fmt.Sprintf("saw-%d", c) }

	stop := make(chan struct{})
	counts := make([]int, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			drv := f.nodes[addrs[c%2]]
			ref := drv.RefFor(grainName(c))
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					counts[c] = seq
					errs <- nil
					return
				default:
				}
				rep, err := actors.AskRetry(drv.System(), ref, Inc{Client: c, Seq: seq}, killRetry)
				if err != nil {
					counts[c] = seq
					errs <- fmt.Errorf("client %d seq %d: %w", c, seq, err)
					return
				}
				if ack, ok := rep.(IncAck); !ok || ack.Seq != seq {
					counts[c] = seq
					errs <- fmt.Errorf("client %d seq %d: bad ack %#v", c, seq, rep)
					return
				}
			}
		}(c)
	}

	// The sawtooth: each isolation outlasts SuspectAfter (60ms in this
	// fixture) so the survivors take the flappy node's shards, each heal
	// phase lets it refute its death and take them back.
	for i := 0; i < cycles; i++ {
		part.Isolate(flappy)
		time.Sleep(90 * time.Millisecond)
		part.HealNode(flappy)
		time.Sleep(90 * time.Millisecond)
	}
	part.HealAll()
	// Snapshot the survivors' view of the flappy node the moment the
	// cluster converges. Read later, after the load drains, a heartbeat
	// timeout on a starved machine can show a fresh, unrelated suspicion.
	views := map[string]Member{}
	waitUntil(t, 10*time.Second, "post-sawtooth convergence", func() bool {
		if !f.converged() {
			return false
		}
		for _, a := range addrs[:2] {
			ms, _ := f.nodes[a].Members()
			views[a] = memberOf(ms, flappy)
		}
		return true
	})
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	offered := 0
	for _, n := range counts {
		offered += n
	}
	if offered == 0 {
		t.Fatal("no load ran through the sawtooth")
	}
	if got := led.distinct(); got != offered {
		t.Fatalf("distinct deliveries = %d, offered = %d", got, offered)
	}
	if viol := led.violations(); len(viol) > 0 {
		t.Fatalf("two live activations overlapped:\n%s", viol)
	}

	// Incarnation fencing: the flappy node was declared dead and had to
	// refute under a higher incarnation to get back in. Every survivor
	// agrees on the raised incarnation.
	for _, a := range addrs[:2] {
		m := views[a]
		if m.State != StateAlive || m.Inc == 0 {
			t.Fatalf("%s sees flappy node as %s inc=%d, want alive at raised incarnation", a, m.State, m.Inc)
		}
	}
}

// TestRefutedDeathDeposesActivations checks the refuting side of the
// readmission fence: a node that learns it was declared dead deposes every
// activation at once, since the peers that declared it may already host its
// grains, and hosts again once they acknowledge its new incarnation.
func TestRefutedDeathDeposesActivations(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	f := startCluster(t, addrs, echoFactory)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)
	// A link that times out and comes back up withdraws that peer's
	// acknowledgment; settle the links first, as
	// TestSingleActivationAcrossNodes does.
	f.waitLinksSettled(t, 16*time.Millisecond)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)
	c1 := f.nodes["n1"]
	name := ""
	for i := 0; name == ""; i++ {
		if owner, ok := c1.OwnerOf(fmt.Sprintf("dead-%d", i)); ok && owner == "n1" {
			name = fmt.Sprintf("dead-%d", i)
		}
	}
	whereIs := func() string {
		rep, err := actors.AskRetry(c1.System(), c1.RefFor(name), WhoAmI{}, killRetry)
		if err != nil {
			t.Fatalf("WhoAmI %s: %v", name, err)
		}
		return rep.(HostedAt).Node
	}
	if at := whereIs(); at != "n1" {
		t.Fatalf("%s hosted at %s, want n1", name, at)
	}
	out := c1.CounterSnapshot().HandoffsOut

	c1.mem.merge([]Member{{Addr: "n1", Inc: 0, State: StateDead}}, time.Now())
	if got := c1.ActiveGrains(); len(got) != 0 {
		t.Fatalf("activations survived the refuted death: %v", got)
	}
	if got := c1.CounterSnapshot().HandoffsOut; got != out+1 {
		t.Fatalf("handoffs out = %d, want %d", got, out+1)
	}
	if at := whereIs(); at != "n1" {
		t.Fatalf("%s rehosted at %s, want n1", name, at)
	}
	// Activation required every peer's acknowledgment of incarnation 1:
	// each peer's own table must hold n1 at incarnation >= 1. n1's acked
	// flag cannot stand in for this, because a later link-up withdraws it.
	for _, addr := range addrs[1:] {
		ms, _ := f.nodes[addr].Members()
		var inc uint64
		for _, m := range ms {
			if m.Addr == "n1" {
				inc = m.Inc
			}
		}
		if inc < 1 {
			t.Fatalf("rehosted before the peers acknowledged incarnation 1: %s holds n1 at incarnation %d", addr, inc)
		}
	}
}
