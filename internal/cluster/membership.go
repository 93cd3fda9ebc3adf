package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// Membership is a SWIM-flavored gossip protocol that rides the wire layer's
// existing liveness machinery instead of adding its own: failure detection
// comes from remote.Config.OnLinkState (a dial-out link's heartbeat timeout
// IS the suspicion trigger), and dissemination from remote.Config.Gossip
// (digests piggyback on heartbeat ticks as FrameGossip frames, which a node
// without a hook ignores). Each member carries an incarnation number only it may
// increment: a state claim about a member is ordered first by incarnation,
// then by direness (alive < suspect < dead < left), so a flapping node
// cannot resurrect stale ownership — its old alive@i claims lose to the
// suspect@i that grounded it, and only the node itself, by refuting with
// alive@i+1, can clear the suspicion.
//
// Lifecycle of a failure: the link to a peer times out → the peer is marked
// suspect at its current incarnation (it keeps its shards — flapping must
// not thrash the ring) → if the suspicion survives SuspectAfter it is
// promoted to dead, the ring epoch bumps, and its shards move. A suspected
// node that was merely slow sees its own suspicion in gossip and refutes;
// a dead node that restarts sees dead@i and rejoins as alive@i+1.
//
// Split-brain fencing is quorum-based: a node hosts activations only while
// it can see (links not down, state alive) a strict majority of all members
// it has ever known. The minority side of a partition loses its links within one
// heartbeat timeout and stops hosting immediately, while the majority side
// waits out SuspectAfter before taking ownership — so the fencing margin
// between the old owner deactivating and the new owner activating is
// SuspectAfter minus one heartbeat timeout, and SuspectAfter must be
// comfortably larger (withDefaults enforces a floor).

// State is a member's liveness as locally believed.
type State uint8

const (
	// StateAlive: links up (or no evidence against); owns its ring shards.
	StateAlive State = iota
	// StateSuspect: link down, grace running; still owns its shards, but
	// messages to them are parked rather than forwarded into the dead link.
	StateSuspect
	// StateDead: suspicion outlived SuspectAfter; shards have moved. Only a
	// refutation at a higher incarnation readmits the member.
	StateDead
	// StateLeft: graceful departure (tombstone; never contests ownership).
	StateLeft
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Member is one row of the membership table.
type Member struct {
	Addr  string
	Inc   uint64 // incarnation: bumped only by the member itself, to refute
	State State
}

// memberChange describes one accepted table transition, delivered to the
// cluster after the table lock is released.
type memberChange struct {
	Member
	prev  State
	fresh bool // first time this address was heard of
}

type memberRec struct {
	Member
	since time.Time // when State was last set (drives suspect→dead)
}

type membership struct {
	suspectAfter time.Duration
	shards       int
	onChange     func([]memberChange, uint64) // fired outside mu; epoch after the batch

	mu      sync.RWMutex
	self    string // empty until start()
	inc     uint64 // own incarnation
	members map[string]*memberRec
	epoch   uint64
	// down holds the peers whose dial-out link last reported down. A member
	// can be alive in the table while its link is down: gossip relayed by
	// a third node readmits it while our redial still backs off. Quorum
	// counts only members we can reach (see quorate).
	down map[string]bool
	// acked holds, per peer, the incarnation of this node that the peer's
	// latest digest claimed alive (0 when the digest claimed anything else
	// or omitted us). See acknowledged.
	acked map[string]uint64

	// ring memoizes shard ownership for the current epoch: owners are
	// alive+suspect members (suspects keep their shards; see package doc).
	ringEpoch  uint64
	ringOwners []string // len == shards; "" where no candidate exists

	scratch []byte // digest encode buffer, guarded by mu
}

func newMembership(shards int, suspectAfter time.Duration, onChange func([]memberChange, uint64)) *membership {
	return &membership{
		suspectAfter: suspectAfter,
		shards:       shards,
		onChange:     onChange,
		members:      map[string]*memberRec{},
		down:         map[string]bool{},
		acked:        map[string]uint64{},
	}
}

// start names this node (the resolved listen address, known only after the
// remote.Node binds) and seeds the table. Gossip arriving before start is
// dropped — frames cannot flow before the node listens anyway.
func (m *membership) start(self string, seeds []string, now time.Time) {
	m.mu.Lock()
	m.self = self
	m.members[self] = &memberRec{Member: Member{Addr: self, Inc: 0, State: StateAlive}, since: now}
	for _, s := range seeds {
		if s == self || s == "" {
			continue
		}
		if _, ok := m.members[s]; !ok {
			m.members[s] = &memberRec{Member: Member{Addr: s, Inc: 0, State: StateAlive}, since: now}
		}
	}
	m.epoch++
	m.mu.Unlock()
}

// epochNow returns the current table epoch.
func (m *membership) epochNow() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// snapshot returns the table rows and epoch.
func (m *membership) snapshot() ([]Member, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Member, 0, len(m.members))
	for _, r := range m.members {
		out = append(out, r.Member)
	}
	return out, m.epoch
}

// counts returns (alive, suspect, dead, total-non-left) for gauges and the
// quorum rule.
func (m *membership) counts() (alive, suspect, dead, total int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.countsLocked()
}

func (m *membership) countsLocked() (alive, suspect, dead, total int) {
	for _, r := range m.members {
		switch r.State {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		default:
			continue // left members are tombstones, outside the quorum universe
		}
		total++
	}
	return
}

// quorate reports whether this node may host activations: it must believe a
// strict majority of all known (non-left) members — itself included — is
// alive and reachable. Suspects do not count toward the majority: that is
// what makes the minority side of a partition fence itself within one
// heartbeat timeout, before the majority side's SuspectAfter expires and
// ownership moves. Nor do alive members behind a down link. A link that is
// already down when a partition starts reports no new transition, so the
// partition raises no suspicion of that member; counting it would leave the
// minority side quorate, and hosting, for as long as the partition lasts.
func (m *membership) quorate() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	reachable, total := 0, 0
	for addr, r := range m.members {
		if r.State == StateLeft {
			continue
		}
		total++
		if r.State == StateAlive && !m.down[addr] {
			reachable++
		}
	}
	return reachable*2 > total
}

// acknowledged reports whether every peer that is alive or suspect in our
// table has acknowledged our current incarnation: its latest digest claims
// us alive at it. A node that refuted its death hosts nothing new until
// then, because a peer still holding the stale claim may own our shards and
// host their grains. The peer's digest is built from its table, and once
// its table has us alive again its routing sends our shards' messages here
// and its old activations refuse them (see Cluster.mayHost). At incarnation
// 0 nobody has claimed anything against us, so the check passes at once.
func (m *membership) acknowledged() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for addr, r := range m.members {
		if addr == m.self || (r.State != StateAlive && r.State != StateSuspect) {
			continue
		}
		if m.acked[addr] < m.inc {
			return false
		}
	}
	return true
}

// ownerOf resolves a shard to its owning member under the current view.
// Suspect owners are reported as such so the routing layer parks instead of
// forwarding into a dead link.
func (m *membership) ownerOf(shard int) (addr string, state State, ok bool) {
	m.mu.RLock()
	if m.ringEpoch == m.epoch && m.ringOwners != nil {
		addr = m.ringOwners[shard]
		if addr == "" {
			m.mu.RUnlock()
			return "", 0, false
		}
		rec := m.members[addr]
		st := rec.State
		m.mu.RUnlock()
		return addr, st, true
	}
	m.mu.RUnlock()

	m.mu.Lock()
	m.rebuildRingLocked()
	addr = m.ringOwners[shard]
	var st State
	if addr != "" {
		st = m.members[addr].State
		ok = true
	}
	m.mu.Unlock()
	return addr, st, ok
}

// rebuildRingLocked recomputes the memoized owner table for the current
// epoch. Candidates are alive and suspect members: suspicion alone must not
// move shards, or a flapping link would thrash every grain it hosts.
func (m *membership) rebuildRingLocked() {
	if m.ringEpoch == m.epoch && m.ringOwners != nil {
		return
	}
	candidates := make([]string, 0, len(m.members))
	for addr, r := range m.members {
		if r.State == StateAlive || r.State == StateSuspect {
			candidates = append(candidates, addr)
		}
	}
	if m.ringOwners == nil {
		m.ringOwners = make([]string, m.shards)
	}
	for s := 0; s < m.shards; s++ {
		m.ringOwners[s] = ownerAmong(s, candidates)
	}
	m.ringEpoch = m.epoch
}

// ownedShards returns the shards this node currently owns.
func (m *membership) ownedShards() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rebuildRingLocked()
	var out []int
	for s, o := range m.ringOwners {
		if o == m.self && o != "" {
			out = append(out, s)
		}
	}
	return out
}

// --- gossip (remote.GossipHook) ---------------------------------------------

// GossipDigest encodes the full table as the self-contained snapshot the
// wire layer piggybacks on a heartbeat: uvarint count, then per member a
// length-prefixed address, uvarint incarnation, and a state byte. Tables are
// a handful of rows, so full-state gossip converges in one round per link
// and there is no anti-entropy bookkeeping to get wrong.
func (m *membership) GossipDigest(peer string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.self == "" {
		return nil
	}
	buf := binary.AppendUvarint(m.scratch[:0], uint64(len(m.members)))
	for _, r := range m.members {
		buf = binary.AppendUvarint(buf, uint64(len(r.Addr)))
		buf = append(buf, r.Addr...)
		buf = binary.AppendUvarint(buf, r.Inc)
		buf = append(buf, byte(r.State))
	}
	m.scratch = buf
	// The wire layer stores the digest into a frame before the next tick
	// reuses scratch, but the hook contract is a stable snapshot — copy.
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// OnGossip merges one received digest (remote.GossipHook) and records what
// it says about us as from's acknowledgment (see acknowledged).
func (m *membership) OnGossip(from string, digest []byte) {
	claims, ok := decodeDigest(digest)
	if !ok {
		return
	}
	m.merge(claims, time.Now())
	m.noteAck(from, claims)
}

// noteAck records from's view of this node. When it completes the
// acknowledgment of our incarnation, onChange fires with no changes so the
// cluster flushes what it parked meanwhile without waiting for a sweep tick.
func (m *membership) noteAck(from string, claims []Member) {
	m.mu.Lock()
	if m.self == "" || from == m.self {
		m.mu.Unlock()
		return
	}
	var inc uint64
	for _, c := range claims {
		if c.Addr == m.self && c.State == StateAlive {
			inc = c.Inc
		}
	}
	completed := m.acked[from] < m.inc && inc >= m.inc
	m.acked[from] = inc
	epoch := m.epoch
	m.mu.Unlock()
	if completed && m.onChange != nil {
		m.onChange(nil, epoch)
	}
}

func decodeDigest(b []byte) ([]Member, bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > 1<<16 {
		return nil, false
	}
	b = b[k:]
	out := make([]Member, 0, n)
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b[k:])) < l+2 {
			return nil, false
		}
		b = b[k:]
		addr := string(b[:l])
		b = b[l:]
		inc, k := binary.Uvarint(b)
		if k <= 0 || len(b[k:]) < 1 {
			return nil, false
		}
		b = b[k:]
		st := State(b[0])
		if st > StateLeft {
			return nil, false
		}
		b = b[1:]
		out = append(out, Member{Addr: addr, Inc: inc, State: st})
	}
	return out, true
}

// direr orders states at equal incarnation: the more dire claim wins, which
// is what lets dead override suspect override alive without a coordinator.
func direr(a, b State) bool { return a > b }

// merge applies a batch of claims under the incarnation/direness order and
// fires onChange for every accepted transition.
func (m *membership) merge(claims []Member, now time.Time) {
	var changes []memberChange
	m.mu.Lock()
	if m.self == "" {
		m.mu.Unlock()
		return
	}
	for _, c := range claims {
		if c.Addr == "" {
			continue
		}
		if c.Addr == m.self {
			// Refutation: someone believes we are suspect/dead/left. If the
			// claim's incarnation is current, only we may clear it — by
			// re-asserting alive one incarnation higher, which the next
			// gossip round disseminates.
			// The change reports the refuted claim's state as prev: a node
			// that learns it was declared dead must depose its activations.
			if c.State != StateAlive && c.Inc >= m.inc {
				m.inc = c.Inc + 1
				rec := m.members[m.self]
				rec.Inc, rec.State, rec.since = m.inc, StateAlive, now
				m.epoch++
				changes = append(changes, memberChange{Member: rec.Member, prev: c.State})
			}
			continue
		}
		rec, known := m.members[c.Addr]
		if !known {
			m.members[c.Addr] = &memberRec{Member: c, since: now}
			m.epoch++
			changes = append(changes, memberChange{Member: c, prev: StateAlive, fresh: true})
			continue
		}
		if c.Inc > rec.Inc || (c.Inc == rec.Inc && direr(c.State, rec.State)) {
			prev := rec.State
			rec.Inc, rec.State, rec.since = c.Inc, c.State, now
			if prev != c.State {
				m.epoch++
				changes = append(changes, memberChange{Member: rec.Member, prev: prev})
			}
		}
	}
	epoch := m.epoch
	m.mu.Unlock()
	if len(changes) > 0 && m.onChange != nil {
		m.onChange(changes, epoch)
	}
}

// --- direct failure detection (remote.Config.OnLinkState) -------------------

// onLinkState is the wire layer's liveness verdict for one dial-out link.
// Down is direct evidence: alive → suspect at the member's current
// incarnation. Up clears a suspicion we raised ourselves the same way; a
// dead member is NOT revived by a mere reconnect — it must refute through
// gossip at a higher incarnation, or its stale ownership could resurrect.
func (m *membership) onLinkState(peer string, up bool) {
	var changes []memberChange
	m.mu.Lock()
	if peer == m.self {
		m.mu.Unlock()
		return
	}
	if up {
		delete(m.down, peer)
	} else {
		m.down[peer] = true
	}
	rec, known := m.members[peer]
	if !known {
		m.mu.Unlock()
		return
	}
	now := time.Now()
	switch {
	case !up && rec.State == StateAlive:
		prev := rec.State
		rec.State, rec.since = StateSuspect, now
		m.epoch++
		changes = append(changes, memberChange{Member: rec.Member, prev: prev})
	case up && rec.State == StateSuspect:
		prev := rec.State
		rec.State, rec.since = StateAlive, now
		m.epoch++
		changes = append(changes, memberChange{Member: rec.Member, prev: prev})
	}
	epoch := m.epoch
	m.mu.Unlock()
	if len(changes) > 0 && m.onChange != nil {
		m.onChange(changes, epoch)
	}
}

// tick promotes suspicions that outlived the grace period to dead. Called
// from the cluster janitor.
func (m *membership) tick(now time.Time) {
	var changes []memberChange
	m.mu.Lock()
	for _, rec := range m.members {
		if rec.State == StateSuspect && now.Sub(rec.since) >= m.suspectAfter {
			prev := rec.State
			rec.State, rec.since = StateDead, now
			m.epoch++
			changes = append(changes, memberChange{Member: rec.Member, prev: prev})
		}
	}
	epoch := m.epoch
	m.mu.Unlock()
	if len(changes) > 0 && m.onChange != nil {
		m.onChange(changes, epoch)
	}
}

// leave marks this node left, for a graceful Close: the tombstone rides any
// gossip still in flight, so peers reassign its shards without waiting out
// suspicion. Best-effort — a torn-down node stops gossiping immediately.
func (m *membership) leave() {
	m.mu.Lock()
	if rec, ok := m.members[m.self]; ok && m.self != "" {
		m.inc++
		rec.Inc, rec.State = m.inc, StateLeft
		m.epoch++
	}
	m.mu.Unlock()
}
