package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
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

// view is one immutable routing snapshot of the membership table. Every
// mutation publishes a fresh one under the table lock; readers load the
// current view once and make all of a decision from that single load, so
// routing never takes the table lock and never mixes two views.
type view struct {
	epoch   uint64
	self    string
	members []Member // table rows, in map order
	// shards is the ring under this view: owners are alive and suspect
	// members (suspects keep their shards; see package doc).
	shards  []shardView
	quorate bool // see publishLocked
	acked   bool // see publishLocked
}

// shardView is one shard's placement under a view.
type shardView struct {
	owner string // "" where no member is a candidate
	state State  // the owner's state
	mine  bool   // owner is this node
}

// hosts reports whether this node may run grains of shard under v: it is
// quorate and v assigns it the shard.
func (v *view) hosts(shard int) bool { return v.quorate && v.shards[shard].mine }

// sameRouting reports whether o makes the same routing decisions as v. The
// ring changes only with the epoch; quorum and acknowledgment can change
// without it.
func (v *view) sameRouting(o *view) bool {
	return o != nil && v.epoch == o.epoch && v.quorate == o.quorate && v.acked == o.acked
}

type membership struct {
	suspectAfter time.Duration
	shards       int
	onChange     func([]memberChange, uint64) // fired outside mu; epoch after the batch

	// cur is the published view; mutations replace it under mu.
	cur atomic.Pointer[view]

	mu      sync.Mutex // guards the table below; readers use cur
	self    string     // empty until start()
	inc     uint64     // own incarnation
	members map[string]*memberRec
	epoch   uint64
	// down holds the peers whose dial-out link last reported down. A member
	// can be alive in the table while its link is down: gossip relayed by
	// a third node readmits it while our redial still backs off. Quorum
	// counts only members we can reach (see publishLocked).
	down map[string]bool
	// acked holds, per peer, the incarnation of this node that the peer's
	// latest digest claimed alive (0 when the digest claimed anything else
	// or omitted us). See publishLocked.
	acked map[string]uint64
}

func newMembership(shards int, suspectAfter time.Duration, onChange func([]memberChange, uint64)) *membership {
	m := &membership{
		suspectAfter: suspectAfter,
		shards:       shards,
		onChange:     onChange,
		members:      map[string]*memberRec{},
		down:         map[string]bool{},
		acked:        map[string]uint64{},
	}
	m.publishLocked() // nothing shares m yet
	return m
}

// publishLocked rebuilds the view from the table and publishes it, and
// returns its epoch. Every mutation calls it before releasing mu. The ring
// is recomputed only when the epoch moved: every state change bumps it.
//
// quorate: this node may host activations only while it believes a strict
// majority of all known (non-left) members, itself included, is alive and
// reachable. Suspects do not count toward the majority: that is what makes
// the minority side of a partition fence itself within one heartbeat
// timeout, before the majority side's SuspectAfter expires and ownership
// moves. Nor do alive members behind a down link. A link that is already
// down when a partition starts reports no new transition, so the partition
// raises no suspicion of that member; counting it would leave the minority
// side quorate, and hosting, for as long as the partition lasts.
//
// acked: every peer that is alive or suspect in the table has acknowledged
// our current incarnation: its latest digest claims us alive at it. A node
// that refuted its death hosts nothing new until then, because a peer still
// holding the stale claim may own our shards and host their grains. The
// peer's digest is built from its table, and once its table has us alive
// again its routing sends our shards' messages here and its old activations
// refuse them (see Cluster.mayHost). At incarnation 0 nobody has claimed
// anything against us, so the check passes at once.
func (m *membership) publishLocked() uint64 {
	v := &view{epoch: m.epoch, self: m.self, members: make([]Member, 0, len(m.members)), acked: true}
	var candidates []string
	reachable, total := 0, 0
	for addr, r := range m.members {
		v.members = append(v.members, r.Member)
		if r.State == StateLeft {
			continue // left members are tombstones, outside the quorum universe
		}
		total++
		if r.State == StateAlive && !m.down[addr] {
			reachable++
		}
		if r.State == StateAlive || r.State == StateSuspect {
			candidates = append(candidates, addr)
			if addr != m.self && m.acked[addr] < m.inc {
				v.acked = false
			}
		}
	}
	v.quorate = reachable*2 > total
	if prev := m.cur.Load(); prev != nil && prev.epoch == m.epoch {
		v.shards = prev.shards
	} else {
		v.shards = make([]shardView, m.shards)
		for s := range v.shards {
			if o := ownerAmong(s, candidates); o != "" {
				v.shards[s] = shardView{owner: o, state: m.members[o].State, mine: o == m.self}
			}
		}
	}
	m.cur.Store(v)
	return m.epoch
}

// load returns the current view.
func (m *membership) load() *view { return m.cur.Load() }

// fire delivers accepted changes to onChange, outside mu.
func (m *membership) fire(changes []memberChange, epoch uint64) {
	if len(changes) > 0 && m.onChange != nil {
		m.onChange(changes, epoch)
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
	m.publishLocked()
	m.mu.Unlock()
}

// epochNow returns the current table epoch.
func (m *membership) epochNow() uint64 { return m.load().epoch }

// snapshot returns the table rows and epoch.
func (m *membership) snapshot() ([]Member, uint64) {
	v := m.load()
	return append([]Member(nil), v.members...), v.epoch
}

// counts returns (alive, suspect, dead, total-non-left) for gauges.
func (m *membership) counts() (alive, suspect, dead, total int) {
	for _, r := range m.load().members {
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

// quorate reports whether this node may host activations (see
// publishLocked).
func (m *membership) quorate() bool { return m.load().quorate }

// acknowledged reports whether every alive or suspect peer has acknowledged
// this node's current incarnation (see publishLocked).
func (m *membership) acknowledged() bool { return m.load().acked }

// ownerOf resolves a shard to its owning member under the current view.
// Suspect owners are reported as such so the routing layer parks instead of
// forwarding into a dead link.
func (m *membership) ownerOf(shard int) (addr string, state State, ok bool) {
	sv := m.load().shards[shard]
	return sv.owner, sv.state, sv.owner != ""
}

// ownedShards returns the shards this node currently owns.
func (m *membership) ownedShards() []int {
	var out []int
	for s, sv := range m.load().shards {
		if sv.mine {
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
	v := m.load()
	if v.self == "" {
		return nil
	}
	buf := binary.AppendUvarint(make([]byte, 0, 1+len(v.members)*32), uint64(len(v.members)))
	for _, r := range v.members {
		buf = binary.AppendUvarint(buf, uint64(len(r.Addr)))
		buf = append(buf, r.Addr...)
		buf = binary.AppendUvarint(buf, r.Inc)
		buf = append(buf, byte(r.State))
	}
	return buf
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
	epoch := m.publishLocked()
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
	epoch := m.publishLocked()
	m.mu.Unlock()
	m.fire(changes, epoch)
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
	// The down map alone can change quorum, with no state change and no
	// epoch bump; the publish below covers that too.
	if up {
		delete(m.down, peer)
		// The peer's acknowledgment predates the outage, during which it
		// may have declared us dead. Frames it queued meanwhile can arrive
		// before the digest that says so, so the peer must acknowledge
		// again before we host anything new.
		delete(m.acked, peer)
	} else {
		m.down[peer] = true
	}
	if rec, known := m.members[peer]; known {
		now := time.Now()
		switch {
		case !up && rec.State == StateAlive:
			rec.State, rec.since = StateSuspect, now
			m.epoch++
			changes = append(changes, memberChange{Member: rec.Member, prev: StateAlive})
		case up && rec.State == StateSuspect:
			rec.State, rec.since = StateAlive, now
			m.epoch++
			changes = append(changes, memberChange{Member: rec.Member, prev: StateSuspect})
		}
	}
	epoch := m.publishLocked()
	m.mu.Unlock()
	m.fire(changes, epoch)
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
	if len(changes) == 0 {
		m.mu.Unlock()
		return
	}
	epoch := m.publishLocked()
	m.mu.Unlock()
	m.fire(changes, epoch)
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
		m.publishLocked()
	}
	m.mu.Unlock()
}
