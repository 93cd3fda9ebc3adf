package cluster

import (
	"testing"
	"time"
)

func collectChanges(dst *[]memberChange) func([]memberChange, uint64) {
	return func(ch []memberChange, _ uint64) { *dst = append(*dst, ch...) }
}

func TestDigestRoundTrip(t *testing.T) {
	m := newMembership(16, time.Second, nil)
	now := time.Now()
	m.start("A", []string{"B", "C"}, now)
	m.merge([]Member{{Addr: "D", Inc: 7, State: StateSuspect}}, now)

	claims, ok := decodeDigest(m.GossipDigest("B"))
	if !ok {
		t.Fatal("digest failed to decode")
	}
	got := map[string]Member{}
	for _, c := range claims {
		got[c.Addr] = c
	}
	if len(got) != 4 {
		t.Fatalf("digest carried %d members, want 4: %v", len(got), got)
	}
	if d := got["D"]; d.Inc != 7 || d.State != StateSuspect {
		t.Fatalf("D round-tripped as %+v", d)
	}
	if a := got["A"]; a.State != StateAlive {
		t.Fatalf("self round-tripped as %+v", a)
	}
}

func TestDigestRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0xff}, {2, 1, 'x'}, {1, 3, 'a', 'b', 'c', 0, 9}} {
		if claims, ok := decodeDigest(b); ok && len(claims) > 0 {
			t.Fatalf("garbage %v decoded to %v", b, claims)
		}
	}
	// A valid single-member digest decodes.
	m := newMembership(4, time.Second, nil)
	m.start("solo", nil, time.Now())
	if _, ok := decodeDigest(m.GossipDigest("x")); !ok {
		t.Fatal("valid digest rejected")
	}
}

func TestMergeIncarnationAndDirenessOrder(t *testing.T) {
	m := newMembership(16, time.Second, nil)
	now := time.Now()
	m.start("A", []string{"B"}, now)

	// Same incarnation: the more dire claim wins…
	m.merge([]Member{{Addr: "B", Inc: 0, State: StateSuspect}}, now)
	if ms, _ := m.snapshot(); stateOf(ms, "B") != StateSuspect {
		t.Fatal("suspect@0 did not override alive@0")
	}
	// …and the less dire one cannot claw back.
	m.merge([]Member{{Addr: "B", Inc: 0, State: StateAlive}}, now)
	if ms, _ := m.snapshot(); stateOf(ms, "B") != StateSuspect {
		t.Fatal("alive@0 overrode suspect@0 — flapping can resurrect stale state")
	}
	// A higher incarnation clears it regardless of direness.
	m.merge([]Member{{Addr: "B", Inc: 1, State: StateAlive}}, now)
	if ms, _ := m.snapshot(); stateOf(ms, "B") != StateAlive {
		t.Fatal("alive@1 did not override suspect@0")
	}
	// Dead at the same incarnation beats suspect and alive.
	m.merge([]Member{{Addr: "B", Inc: 1, State: StateDead}}, now)
	if ms, _ := m.snapshot(); stateOf(ms, "B") != StateDead {
		t.Fatal("dead@1 did not override alive@1")
	}
}

func TestSelfRefutationBumpsIncarnation(t *testing.T) {
	var changes []memberChange
	m := newMembership(16, time.Second, collectChanges(&changes))
	now := time.Now()
	m.start("A", []string{"B"}, now)

	// Someone declares us dead at our current incarnation: we must refute
	// one incarnation higher, never accept it.
	m.merge([]Member{{Addr: "A", Inc: 0, State: StateDead}}, now)
	ms, _ := m.snapshot()
	self := memberOf(ms, "A")
	if self.State != StateAlive || self.Inc != 1 {
		t.Fatalf("after dead@0 claim, self = %+v, want alive@1", self)
	}
	// A stale claim below our incarnation is ignored outright.
	m.merge([]Member{{Addr: "A", Inc: 0, State: StateSuspect}}, now)
	ms, _ = m.snapshot()
	if self := memberOf(ms, "A"); self.State != StateAlive || self.Inc != 1 {
		t.Fatalf("stale suspect@0 disturbed self: %+v", self)
	}
}

func TestSuspectPromotionAndQuorum(t *testing.T) {
	m := newMembership(16, 50*time.Millisecond, nil)
	now := time.Now()
	m.start("A", []string{"B", "C"}, now)
	if !m.quorate() {
		t.Fatal("3/3 alive should be quorate")
	}

	m.onLinkState("B", false)
	m.onLinkState("C", false)
	if m.quorate() {
		t.Fatal("1 alive of 3 should not be quorate")
	}
	// Before the grace expires the suspects are still ring candidates.
	if _, _, ok := m.ownerOf(3); !ok {
		t.Fatal("suspects should still anchor the ring")
	}
	m.tick(now.Add(20 * time.Millisecond)) // grace not yet expired
	if ms, _ := m.snapshot(); stateOf(ms, "B") != StateSuspect {
		t.Fatal("promoted before SuspectAfter")
	}
	m.tick(now.Add(100 * time.Millisecond))
	ms, _ := m.snapshot()
	if stateOf(ms, "B") != StateDead || stateOf(ms, "C") != StateDead {
		t.Fatalf("suspects not promoted: %v", ms)
	}
	// With B and C dead the survivor owns everything — but still lacks
	// quorum (1 alive of 3 known), so it may not host.
	for s := 0; s < 16; s++ {
		if owner, _, ok := m.ownerOf(s); !ok || owner != "A" {
			t.Fatalf("shard %d owner = %q after deaths", s, owner)
		}
	}
	if m.quorate() {
		t.Fatal("sole survivor of 3 must stay fenced")
	}

	// Link recovery while merely suspect restores alive directly.
	m2 := newMembership(16, time.Hour, nil)
	m2.start("A", []string{"B", "C"}, now)
	m2.onLinkState("B", false)
	m2.onLinkState("B", true)
	if ms, _ := m2.snapshot(); stateOf(ms, "B") != StateAlive {
		t.Fatal("link recovery did not clear local suspicion")
	}
	// But a dead member reconnecting is NOT revived by the link alone.
	m2.merge([]Member{{Addr: "C", Inc: 0, State: StateDead}}, now)
	m2.onLinkState("C", true)
	if ms, _ := m2.snapshot(); stateOf(ms, "C") != StateDead {
		t.Fatal("link up revived a dead member without refutation")
	}
}

// TestQuorumCountsOnlyReachableMembers pins the partition case a
// table-only count missed: a member readmitted by relayed gossip while our
// own link to it is still down sits in the table as alive, and a later
// partition raises no new suspicion of it. It must not count toward quorum.
func TestQuorumCountsOnlyReachableMembers(t *testing.T) {
	m := newMembership(16, 50*time.Millisecond, nil)
	now := time.Now()
	m.start("A", []string{"B", "C"}, now)
	m.onLinkState("B", false)
	m.merge([]Member{{Addr: "B", Inc: 0, State: StateDead}}, now)
	// B refutes through C's relay; our redial to B still backs off.
	m.merge([]Member{{Addr: "B", Inc: 1, State: StateAlive}}, now)
	if ms, _ := m.snapshot(); stateOf(ms, "B") != StateAlive {
		t.Fatal("relayed refutation did not readmit B")
	}
	if !m.quorate() {
		t.Fatal("A and C reachable of 3 should be quorate")
	}
	m.onLinkState("C", false)
	if m.quorate() {
		t.Fatal("only A reachable of 3 (B alive behind a down link) must not be quorate")
	}
	m.onLinkState("B", true)
	if !m.quorate() {
		t.Fatal("A and B reachable of 3 should be quorate again")
	}
}

// TestAcknowledgedAfterRefutation pins the readmission fence: after a
// refutation, every alive or suspect peer must claim us alive at the new
// incarnation before we host anything new. A dead peer is not waited for.
func TestAcknowledgedAfterRefutation(t *testing.T) {
	var changes []memberChange
	m := newMembership(16, time.Hour, collectChanges(&changes))
	now := time.Now()
	m.start("A", []string{"B", "C", "D"}, now)
	if !m.acknowledged() {
		t.Fatal("incarnation 0 needs no acknowledgment")
	}
	m.merge([]Member{{Addr: "A", Inc: 0, State: StateDead}}, now)
	if len(changes) != 1 || changes[0].Addr != "A" || changes[0].prev != StateDead {
		t.Fatalf("refutation change = %+v, want A with prev dead", changes)
	}
	m.merge([]Member{{Addr: "D", Inc: 0, State: StateDead}}, now)
	m.onLinkState("C", false) // C suspect: still owns shards, still must ack
	if m.acknowledged() {
		t.Fatal("acknowledged before any peer saw incarnation 1")
	}
	self := func(inc uint64, st State) []Member { return []Member{{Addr: "A", Inc: inc, State: st}} }
	m.noteAck("B", self(1, StateAlive))
	m.noteAck("C", self(0, StateAlive)) // stale: C has not seen the refutation
	if m.acknowledged() {
		t.Fatal("a peer at the old incarnation counted as acknowledging")
	}
	changes = nil
	m.noteAck("C", self(1, StateAlive))
	if !m.acknowledged() {
		t.Fatal("B and C acknowledged incarnation 1; dead D must not be waited for")
	}
	if len(changes) != 0 {
		t.Fatalf("completing ack reported member changes %+v", changes)
	}
	m.noteAck("B", self(1, StateSuspect))
	if m.acknowledged() {
		t.Fatal("a peer that now suspects us still counted as acknowledging")
	}
	// An acknowledgment does not outlive an outage of our link to the peer:
	// the peer may have declared us dead meanwhile, and the frames it queued
	// can arrive before the digest that says so.
	m.noteAck("B", self(1, StateAlive))
	m.onLinkState("B", true)
	if m.acknowledged() {
		t.Fatal("an acknowledgment from before the link came up still counted")
	}
	m.noteAck("B", self(1, StateAlive))
	if !m.acknowledged() {
		t.Fatal("a fresh digest after the link came up did not acknowledge")
	}
}

func TestRingMinimalMovement(t *testing.T) {
	const shards = 128
	all := []string{"n1", "n2", "n3"}
	before := make([]string, shards)
	for s := range before {
		before[s] = ownerAmong(s, all)
	}
	// Removing one member must move exactly its shards, nothing else.
	survivors := []string{"n1", "n3"}
	moved, stayed := 0, 0
	for s := range before {
		after := ownerAmong(s, survivors)
		if before[s] == "n2" {
			if after == "n2" || after == "" {
				t.Fatalf("shard %d stranded on dead member", s)
			}
			moved++
		} else if after != before[s] {
			t.Fatalf("shard %d moved %s→%s though its owner survived", s, before[s], after)
		} else {
			stayed++
		}
	}
	if moved == 0 {
		t.Fatal("dead member owned nothing — ring is degenerate")
	}
	if moved+stayed != shards {
		t.Fatalf("moved %d + stayed %d != %d", moved, stayed, shards)
	}
	// Each node must own a nontrivial share (rendezvous balance).
	counts := map[string]int{}
	for s := range before {
		counts[before[s]]++
	}
	for _, n := range all {
		if counts[n] < shards/8 {
			t.Fatalf("member %s owns only %d/%d shards: %v", n, counts[n], shards, counts)
		}
	}
}

func stateOf(ms []Member, addr string) State { return memberOf(ms, addr).State }

func memberOf(ms []Member, addr string) Member {
	for _, m := range ms {
		if m.Addr == addr {
			return m
		}
	}
	return Member{State: StateLeft}
}
