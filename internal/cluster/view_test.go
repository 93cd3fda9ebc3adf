package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/actors"
)

// tableAnswers recomputes, straight from the membership table and under its
// lock, what the published view must answer: each shard's owner and owner
// state, quorum, and acknowledgment.
type tableAnswers struct {
	owners  []string
	states  []State
	quorate bool
	acked   bool
}

func recomputeFromTable(m *membership) tableAnswers {
	m.mu.Lock()
	defer m.mu.Unlock()
	var a tableAnswers
	var candidates []string
	reachable, total := 0, 0
	a.acked = true
	for addr, r := range m.members {
		if r.State != StateLeft {
			total++
		}
		if r.State == StateAlive && !m.down[addr] {
			reachable++
		}
		if r.State == StateAlive || r.State == StateSuspect {
			candidates = append(candidates, addr)
			if addr != m.self && m.acked[addr] < m.inc {
				a.acked = false
			}
		}
	}
	a.quorate = reachable*2 > total
	sort.Strings(candidates)
	for s := 0; s < m.shards; s++ {
		o := ownerAmong(s, candidates)
		a.owners = append(a.owners, o)
		if o == "" {
			a.states = append(a.states, 0)
		} else {
			a.states = append(a.states, m.members[o].State)
		}
	}
	return a
}

// TestViewMatchesTableAfterEveryMutation applies one mutation of each kind
// in turn and checks, after each, that every routing read of the published
// view equals a fresh recomputation from the table. The steps where the
// down map or an acknowledgment changes quorum or acknowledgment without an
// epoch bump are what a missing publish in onLinkState or noteAck fails.
func TestViewMatchesTableAfterEveryMutation(t *testing.T) {
	const shards = 32
	t0 := time.Unix(1_000_000, 0)
	m := newMembership(shards, time.Minute, nil)
	ack := func(from string, inc uint64, st State) func() {
		return func() { m.noteAck(from, []Member{{Addr: "A", Inc: inc, State: st}}) }
	}
	steps := []struct {
		name          string
		do            func()
		quorate, ackd bool
	}{
		{"start", func() { m.start("A", []string{"B", "C"}, t0) }, true, true},
		{"merge fresh member", func() { m.merge([]Member{{Addr: "D", State: StateAlive}}, t0) }, true, true},
		{"refutation", func() { m.merge([]Member{{Addr: "A", State: StateDead}}, t0) }, true, false},
		{"noteAck partial", ack("B", 1, StateAlive), true, false},
		{"noteAck partial", ack("C", 1, StateAlive), true, false},
		{"noteAck completing", ack("D", 1, StateAlive), true, true},
		{"link down on alive member", func() { m.onLinkState("C", false) }, true, true},
		{"tick promotion", func() { m.tick(time.Now().Add(time.Hour)) }, true, true},
		{"link down on alive member", func() { m.onLinkState("B", false) }, false, true},
		{"merge dead", func() { m.merge([]Member{{Addr: "B", State: StateDead}}, t0) }, false, true},
		// Relayed refutation: B is alive again while our link to it is down.
		{"merge relayed refutation", func() { m.merge([]Member{{Addr: "B", Inc: 1, State: StateAlive}}, t0) }, false, true},
		// A link coming up withdraws the peer's acknowledgment until its
		// next digest.
		{"link up on alive member", func() { m.onLinkState("B", true) }, true, false},
		{"noteAck completing", ack("B", 1, StateAlive), true, true},
		{"noteAck withdrawn", ack("D", 1, StateSuspect), true, false},
		{"noteAck completing", ack("D", 1, StateAlive), true, true},
		{"link down on alive member", func() { m.onLinkState("D", false) }, false, true},
		{"link up on suspect member", func() { m.onLinkState("D", true) }, true, false},
		{"noteAck completing", ack("D", 1, StateAlive), true, true},
		// Leaving bumps our incarnation, which no peer has acknowledged.
		{"leave", m.leave, true, false},
	}
	for i, st := range steps {
		st.do()
		want := recomputeFromTable(m)
		where := fmt.Sprintf("step %d (%s)", i, st.name)
		if got := m.quorate(); got != want.quorate || got != st.quorate {
			t.Fatalf("%s: quorate() = %v, table says %v, step expects %v", where, got, want.quorate, st.quorate)
		}
		if got := m.acknowledged(); got != want.acked || got != st.ackd {
			t.Fatalf("%s: acknowledged() = %v, table says %v, step expects %v", where, got, want.acked, st.ackd)
		}
		mine := 0
		for s := 0; s < shards; s++ {
			owner, state, ok := m.ownerOf(s)
			if ok != (want.owners[s] != "") || owner != want.owners[s] || (ok && state != want.states[s]) {
				t.Fatalf("%s: ownerOf(%d) = %q %v %v, table says %q %v", where, s, owner, state, ok, want.owners[s], want.states[s])
			}
			if owner == "A" {
				mine++
			}
		}
		if got := len(m.ownedShards()); got != mine {
			t.Fatalf("%s: ownedShards() has %d shards, ownerOf says %d", where, got, mine)
		}
		if _, epoch := m.snapshot(); m.epochNow() != epoch {
			t.Fatalf("%s: epochNow %d, snapshot epoch %d", where, m.epochNow(), epoch)
		}
	}
}

// newSweepCluster is a cluster node with no wire and no janitor: the test
// drives sweep directly, and membership changes fire no sweep of their own.
func newSweepCluster(t *testing.T, shards int, cfg Config) *Cluster {
	t.Helper()
	cfg.Shards = shards
	sys := actors.NewSystem(actors.Config{})
	t.Cleanup(sys.Shutdown)
	c := &Cluster{
		cfg:         cfg.withDefaults(),
		sys:         sys,
		addr:        "A",
		mem:         newMembership(shards, time.Hour, nil),
		grains:      map[string]*grain{},
		refs:        map[string]*actors.Ref{},
		pending:     map[int][]parked{},
		movingSince: map[int]time.Time{},
		shardSince:  map[int]time.Time{},
		done:        make(chan struct{}),
	}
	c.mem.start("A", nil, time.Unix(0, 0))
	return c
}

// plantGrain puts an activation of shard into the grain table directly.
func plantGrain(t *testing.T, c *Cluster, name string, shard int) {
	t.Helper()
	ref, err := c.sys.Spawn("grain:"+name, func(*actors.Context, any) {})
	if err != nil {
		t.Fatal(err)
	}
	g := &grain{ref: ref, shard: shard}
	g.last.Store(time.Now().UnixNano())
	c.gmu.Lock()
	c.grains[name] = g
	c.gmu.Unlock()
}

func grainNames(c *Cluster) map[string]bool {
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	out := map[string]bool{}
	for name := range c.grains {
		out[name] = true
	}
	return out
}

// TestSweepWorksOnlyWhenTheViewMoves drives sweep by hand: a view change
// makes the next sweep depose the grains of lost shards and trim the
// shard-age ledger; an unchanged view with nothing parked leaves the grain
// table and the ledger alone; deposeAll makes the next sweep rebuild the
// ledger.
func TestSweepWorksOnlyWhenTheViewMoves(t *testing.T) {
	const shards = 16
	c := newSweepCluster(t, shards, Config{})
	t0 := time.Unix(1_000_000, 0)

	c.sweep(t0)
	if len(c.shardSince) != shards {
		t.Fatalf("solo node's ledger has %d shards, want all %d", len(c.shardSince), shards)
	}
	for s := 0; s < shards; s++ {
		plantGrain(t, c, fmt.Sprintf("g%d", s), s)
	}

	// B joins and takes some shards: the next sweep deposes exactly those.
	c.mem.merge([]Member{{Addr: "B", State: StateAlive}}, t0)
	v := c.mem.load()
	var lost []int
	for s, sv := range v.shards {
		if !sv.mine {
			lost = append(lost, s)
		}
	}
	if len(lost) == 0 || len(lost) == shards {
		t.Fatalf("B took %d of %d shards; the ring is degenerate", len(lost), shards)
	}
	c.sweep(t0.Add(time.Millisecond))
	names := grainNames(c)
	for s := 0; s < shards; s++ {
		name := fmt.Sprintf("g%d", s)
		if v.shards[s].mine != names[name] {
			t.Fatalf("after the view change, shard %d (mine=%v) hosted=%v", s, v.shards[s].mine, names[name])
		}
		if _, ok := c.shardSince[s]; ok != v.shards[s].mine {
			t.Fatalf("after the view change, ledger entry for shard %d = %v, mine=%v", s, ok, v.shards[s].mine)
		}
	}
	if got := c.handoffsOut.Load(); got != int64(len(lost)) {
		t.Fatalf("handoffsOut = %d, want %d", got, len(lost))
	}

	// Same view, nothing parked: the sweep must not touch the grain table.
	// A grain planted on a lost shard stays, which shows the loop did not run.
	plantGrain(t, c, "stray", lost[0])
	ledger := map[int]time.Time{}
	for s, at := range c.shardSince {
		ledger[s] = at
	}
	c.sweep(t0.Add(time.Hour))
	if !grainNames(c)["stray"] {
		t.Fatal("a sweep under an unchanged view ran the grain loop")
	}
	if len(c.shardSince) != len(ledger) {
		t.Fatalf("ledger changed under an unchanged view: %d → %d entries", len(ledger), len(c.shardSince))
	}
	for s, at := range ledger {
		if !c.shardSince[s].Equal(at) {
			t.Fatalf("ledger entry for shard %d moved under an unchanged view", s)
		}
	}

	// deposeAll empties the ledger and the grain table; the next sweep
	// rebuilds the ledger at its own now, though the view did not move.
	c.deposeAll()
	if len(c.shardSince) != 0 || len(grainNames(c)) != 0 {
		t.Fatalf("deposeAll left %d ledger entries and %d grains", len(c.shardSince), len(grainNames(c)))
	}
	t1 := t0.Add(2 * time.Hour)
	c.sweep(t1)
	if len(c.shardSince) != shards-len(lost) {
		t.Fatalf("ledger after deposeAll has %d entries, want %d", len(c.shardSince), shards-len(lost))
	}
	for s, at := range c.shardSince {
		if !at.Equal(t1) {
			t.Fatalf("ledger entry for shard %d at %v, want the rebuilding sweep's %v", s, at, t1)
		}
	}
}

// TestSweepPassivatesUnderAnUnchangedView pins the other reason to run the
// grain loop: with PassivateAfter set, idle grains passivate even when the
// view never moves.
func TestSweepPassivatesUnderAnUnchangedView(t *testing.T) {
	c := newSweepCluster(t, 4, Config{PassivateAfter: time.Minute})
	now := time.Now()
	c.sweep(now)
	plantGrain(t, c, "idle", 0)
	c.sweep(now.Add(time.Second))
	if !grainNames(c)["idle"] {
		t.Fatal("a grain passivated before PassivateAfter")
	}
	c.sweep(now.Add(2 * time.Minute))
	if grainNames(c)["idle"] {
		t.Fatal("an idle grain survived a sweep past PassivateAfter")
	}
	if got := c.passivations.Load(); got != 1 {
		t.Fatalf("passivations = %d, want 1", got)
	}
}
