// Package cluster shards a named virtual-actor ("grain") space across a set
// of remote.Nodes. Every node runs the same three layers:
//
//   - membership (membership.go): seed-list join, gossip dissemination over
//     the wire layer's heartbeat frames, link-timeout failure detection,
//     incarnation-numbered states, quorum fencing.
//   - ring (ring.go): rendezvous-hashed assignment of a fixed shard count to
//     the live members, recomputed locally per membership epoch.
//   - grains (this file): RefFor("user-12345") returns a proxy whose sends
//     resolve the owning node per delivery. On the owner, the grain is
//     activated on first message via the configured factory and passivated
//     when idle; elsewhere the message is forwarded to the owner's router,
//     which the owner's wire reader runs inline.
//
// Delivery is at-most-once end to end, exactly like the wire layer under it:
// a rebalance can shed in-flight messages (as retryable ErrShardMoving
// deadletters) or deliver parked ones late, so grain protocols must be
// idempotent and callers needing an answer must use AskRetry — the same
// contract remote asks already carry. What the cluster adds is single-writer
// placement: at any moment at most one live activation of a grain exists
// (quorum + suspect-grace fencing at a partition, acknowledged incarnations
// at readmission; asserted by the rebalance tests), so a
// grain serializes its own state like any actor while the system survives
// node death by reactivating elsewhere.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/trace"
)

// RouterName is the well-known remote.Node registration every cluster node
// exports: forwarded grain messages address it as "cluster!router@<owner>".
// It names a proxy Ref, not an actor: the connection reader that decodes a
// forwarded message routes it on the spot (routeForwarded).
const RouterName = "cluster!router"

// maxHops bounds re-forwarding while membership views disagree: a message
// bouncing between nodes that each believe the other owns the shard is
// dropped (a retryable loss) instead of looping.
const maxHops = 4

// GrainEnvelope is the routed form of one grain message. The origin actor's
// identity travels inside it so the final host can materialize a reply proxy
// pointing straight back at the origin node, however many forwarding hops
// the request took.
type GrainEnvelope struct {
	Grain    string
	Hops     uint8
	FromAddr string
	FromID   uint64
	FromName string
	Msg      any
}

func init() { remote.RegisterType(GrainEnvelope{}) }

// GrainFactory builds the behavior for a named grain on first message. A nil
// return refuses the name (sends fail as unreachable).
type GrainFactory func(name string) actors.Behavior

// Config shapes one cluster node.
type Config struct {
	// ListenAddr / Transport / System / HeartbeatInterval / HeartbeatTimeout /
	// CreditWindow / Seed pass through to the underlying remote.Node.
	// HeartbeatTimeout matters under sustained load: the wire default (4
	// heartbeat intervals) is tuned for idle links, and a saturated machine
	// that starves a link goroutine past it produces false suspicions — and
	// with them, shard thrash. Size it to the longest scheduling stall the
	// deployment tolerates; SuspectAfter then stacks on top before anyone is
	// declared dead.
	ListenAddr        string
	Transport         remote.Transport
	System            *actors.System
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	CreditWindow      int
	Seed              int64
	// Seeds are peer listen addresses to join through. The full membership
	// arrives by gossip; seeds are only the first introduction.
	Seeds []string
	// Shards is the ring size (default 128). Every node MUST use the same
	// value — it is placement arithmetic, not a tunable per node.
	Shards int
	// Grain activates named grains on this node (required).
	Grain GrainFactory
	// SuspectAfter is the grace between link-down suspicion and declaring a
	// member dead (default 20 heartbeat intervals, floor 4 heartbeat
	// timeouts — the fencing margin; see membership.go).
	SuspectAfter time.Duration
	// PassivateAfter stops grains idle this long (0 disables).
	PassivateAfter time.Duration
	// HandoffBuffer bounds the per-shard parking buffer that holds messages
	// whose shard is mid-handoff (owner suspect or unknown, or quorum lost).
	// Overflow sheds as ProxyMoving → DLMoving → ErrShardMoving (default 256).
	HandoffBuffer int
	// ActivationGrace delays first activation on a shard this node just
	// gained (default 4 × HeartbeatInterval — one wire heartbeat timeout).
	// It is the second half of the fencing handshake: the losing side
	// deposes its instances the moment its view moves a shard away, and the
	// gaining side parks messages for the grace before activating, so a
	// scheduling stall on the loser cannot overlap two live activations.
	ActivationGrace time.Duration
	// Recorder, when set, receives membership-change flight-recorder events.
	Recorder *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 128
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	hbTimeout := c.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = 4 * c.HeartbeatInterval // the wire layer's default
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 20 * c.HeartbeatInterval
	}
	// The fencing margin: a partitioned minority notices within one
	// heartbeat timeout and stops hosting; the majority must wait
	// comfortably longer before activating replacements.
	if floor := 2 * hbTimeout; c.SuspectAfter < floor {
		c.SuspectAfter = floor
	}
	if c.HandoffBuffer <= 0 {
		c.HandoffBuffer = 256
	}
	if c.ActivationGrace <= 0 {
		c.ActivationGrace = hbTimeout
	}
	return c
}

// grain is one live activation.
type grain struct {
	ref   *actors.Ref
	shard int
	epoch uint64 // membership epoch at activation (the fencing token)
	// deposed fences a deactivated instance: its behavior wrapper drops any
	// message still in the mailbox, so a stopped-but-draining grain can never
	// act concurrently with its successor on another node.
	deposed atomic.Bool
	last    atomic.Int64 // unix nanos of last delivery (passivation clock)
}

// parked is one message waiting out a shard handoff. A span parked with its
// message keeps measuring: the flush marks the park time into StagePark.
type parked struct {
	ge     GrainEnvelope
	sender *actors.Ref
	sp     *trace.Span
}

// Cluster is one node's view of the sharded grain space.
type Cluster struct {
	cfg  Config
	node *remote.Node
	sys  *actors.System
	addr string
	mem  *membership

	gmu         sync.RWMutex
	grains      map[string]*grain
	refs        map[string]*actors.Ref
	pending     map[int][]parked
	movingSince map[int]time.Time
	// shardSince records when the sweep first saw this node own each shard
	// while quorate; activation waits out ActivationGrace from that instant.
	// Cleared wholesale on quorum loss, so a rejoining node restarts its
	// grace even for shards it owned before the partition.
	shardSince map[int]time.Time
	// reconciled is the view the last sweep deposed grains and kept the
	// shardSince ledger under; nil forces the next sweep to redo both.
	reconciled *view
	closed     bool

	activations  atomic.Int64
	passivations atomic.Int64
	handoffsOut  atomic.Int64
	fencedDrops  atomic.Int64
	forwards     atomic.Int64
	forwardDrops atomic.Int64
	parkedTotal  atomic.Int64
	parkedFlush  atomic.Int64
	parkedShed   atomic.Int64
	inboundShed  atomic.Int64
	handoffHist  atomic.Pointer[metrics.LatencyHistogram]

	done chan struct{}
	wg   sync.WaitGroup
}

// New starts a cluster node: binds the wire listener, joins via the seed
// list, and begins serving its share of the ring.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Grain == nil {
		return nil, errors.New("cluster: Config.Grain factory is required")
	}
	c := &Cluster{
		cfg:         cfg,
		grains:      map[string]*grain{},
		refs:        map[string]*actors.Ref{},
		pending:     map[int][]parked{},
		movingSince: map[int]time.Time{},
		shardSince:  map[int]time.Time{},
		done:        make(chan struct{}),
	}
	c.mem = newMembership(cfg.Shards, cfg.SuspectAfter, c.onMembershipChange)
	node, err := remote.NewNode(remote.Config{
		ListenAddr:        cfg.ListenAddr,
		Transport:         cfg.Transport,
		System:            cfg.System,
		HeartbeatInterval: cfg.HeartbeatInterval,
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
		CreditWindow:      cfg.CreditWindow,
		Seed:              cfg.Seed,
		Gossip:            c.mem,
		OnLinkState:       c.mem.onLinkState,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.node = node
	c.sys = node.System()
	c.addr = node.Addr()
	c.mem.start(c.addr, cfg.Seeds, time.Now())

	node.Register(RouterName, c.sys.NewProxyRefStatus(RouterName, c.routeForwarded))

	// Dial every seed now: the links carry the join gossip, and their
	// OnLinkState transitions are the failure detector.
	for _, s := range cfg.Seeds {
		if s != c.addr && s != "" {
			_, _ = node.RefFor(RouterName + "@" + s)
		}
	}

	c.wg.Add(1)
	go c.janitor()
	return c, nil
}

// Node exposes the underlying wire node (stats, metrics, clock).
func (c *Cluster) Node() *remote.Node { return c.node }

// System returns the actor system grains run in.
func (c *Cluster) System() *actors.System { return c.sys }

// Addr is this node's wire identity.
func (c *Cluster) Addr() string { return c.addr }

// Members snapshots the membership table and its epoch.
func (c *Cluster) Members() ([]Member, uint64) { return c.mem.snapshot() }

// Quorate reports whether this node may currently host activations.
func (c *Cluster) Quorate() bool { return c.mem.quorate() }

// OwnedShards lists the shards this node's view assigns to it.
func (c *Cluster) OwnedShards() []int { return c.mem.ownedShards() }

// OwnerOf resolves a grain name to the owning node under this node's view.
func (c *Cluster) OwnerOf(name string) (addr string, ok bool) {
	addr, _, ok = c.mem.ownerOf(shardOf(name, c.cfg.Shards))
	return
}

// ActiveGrains lists the grains currently activated on this node. The
// rebalance tests sample this across nodes to assert single-writer
// placement: no grain may appear on two nodes at once.
func (c *Cluster) ActiveGrains() []string {
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	out := make([]string, 0, len(c.grains))
	for name, g := range c.grains {
		if !g.deposed.Load() {
			out = append(out, name)
		}
	}
	return out
}

// RefFor returns the location-transparent Ref for a named grain. Tells and
// Asks on it resolve the owning node per delivery — activation, forwarding,
// parking during handoff, and post-handoff re-resolution are all behind the
// proxy. Refs are cached per name.
func (c *Cluster) RefFor(name string) *actors.Ref {
	c.gmu.RLock()
	if r, ok := c.refs[name]; ok {
		c.gmu.RUnlock()
		return r
	}
	c.gmu.RUnlock()
	ref := c.sys.NewProxyRefStatus("grain:"+name, func(e actors.Envelope) actors.ProxyStatus {
		ge := GrainEnvelope{Grain: name, Msg: e.Msg}
		if e.Sender != nil {
			ge.FromAddr, ge.FromID, ge.FromName = c.addr, e.Sender.ID(), e.Sender.Name()
		}
		// Span ownership only transfers on ProxyDelivered (delivered, parked,
		// or forwarded); on a refusal it stays with e and the caller's
		// deadletter path seals it with the refusal kind.
		return c.route(ge, e.Sender, e.Span, false)
	})
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if r, ok := c.refs[name]; ok {
		return r
	}
	c.refs[name] = ref
	return ref
}

// route is the one resolution path: local activation on the owner, a
// forward to a live remote owner, or the parking buffer while the shard is
// in motion. Used by the local proxy (hops 0), the inbound router, and the
// janitor's flush. sp, when non-nil, is the message's migrating trace span:
// it travels with the message (into the grain's mailbox, the parking buffer,
// or the next wire hop); route never seals it — refusals return to a caller
// whose deadletter path does.
//
// noWait is set on the inbound router, which runs on a wire connection's
// reader: local delivery there never waits on a full bounded grain mailbox
// but sheds (DLOverloaded in this system, counted in inboundShed), exactly
// as remote dispatch sheds, so one wedged grain cannot stall the heartbeat
// acks, credit grants and other grains' messages sharing the connection.
func (c *Cluster) route(ge GrainEnvelope, sender *actors.Ref, sp *trace.Span, noWait bool) actors.ProxyStatus {
	if c.isClosed() {
		return actors.ProxyUnreachable
	}
	shard := shardOf(ge.Grain, c.cfg.Shards)
	v := c.mem.load()
	sv := v.shards[shard]
	switch {
	case sv.owner == "":
		// No live candidate at all — park until membership recovers.
		return c.park(shard, ge, sender, sp)
	case sv.mine:
		if !v.quorate {
			// Fenced: we may own this shard on paper, but without a quorum
			// of live peers we might be the minority side of a partition
			// whose majority is already re-homing it.
			return c.park(shard, ge, sender, sp)
		}
		g, status := c.activate(ge.Grain, shard)
		if g == nil {
			if status == actors.ProxyMoving {
				return c.park(shard, ge, sender, sp)
			}
			return status
		}
		g.last.Store(time.Now().UnixNano())
		if !noWait {
			g.ref.TellSpan(sender, ge.Msg, sp)
		} else if !g.ref.TellSpanNoWait(sender, ge.Msg, sp, nil) {
			c.inboundShed.Add(1) // already deadlettered, span sealed
		}
		return actors.ProxyDelivered
	case sv.state == StateSuspect:
		// The owner is wobbling: its link died but the grace period still
		// runs. Forwarding would feed a dead link; park instead, and the
		// janitor redelivers when the owner revives or its shards move.
		return c.park(shard, ge, sender, sp)
	default:
		// The other half of the fencing handshake: before this node hands a
		// message to the new owner, any activation it still hosts for the
		// grain is deposed on this very code path — the new owner's
		// ActivationGrace only has to outlast the gap between our view
		// moving the shard and the sweep noticing, and this makes the common
		// case (traffic keeps flowing) synchronous with the first forward.
		c.deposeIfActive(ge.Grain)
		if ge.Hops >= maxHops {
			c.forwardDrops.Add(1)
			return actors.ProxyMoving
		}
		ge.Hops++
		st := c.node.Forward(sv.owner, RouterName, actors.Envelope{Msg: ge, Span: sp})
		if st == actors.ProxyDelivered {
			c.forwards.Add(1)
		}
		return st
	}
}

// routeForwarded is the deliver function of the RouterName proxy, so it runs
// on the wire reader that decoded the frame: it re-resolves every forwarded
// GrainEnvelope under this node's own view, reconstructing the origin sender
// so grain replies cross the wire directly back. A message the view
// re-routes elsewhere is forwarded again (bounded by maxHops); one that
// cannot be placed right now parks like a local send would. Refusals here
// have no caller to return a status to — the origin already got
// ProxyDelivered from its own node — so they are counted sheds, surfaced to
// the caller as an Ask timeout and retried into a fresh resolution. Either
// way the message and its span are taken: the span, adopted and wire-marked
// by the reader, goes on with the message to its next hop.
func (c *Cluster) routeForwarded(e actors.Envelope) actors.ProxyStatus {
	ge, ok := e.Msg.(GrainEnvelope)
	if !ok {
		return actors.ProxyUnreachable // not routable: deadletters here
	}
	var sender *actors.Ref
	if ge.FromID != 0 && ge.FromAddr != "" {
		sender = c.node.RefByID(ge.FromAddr, ge.FromID, ge.FromName+"@"+ge.FromAddr)
	}
	if c.route(ge, sender, e.Span, true) != actors.ProxyDelivered {
		c.parkedShed.Add(1)
		e.Span.FinishDead(actors.DLMoving.String(), trace.SpanNow())
	}
	return actors.ProxyDelivered
}

// activate returns the live local activation of name, creating it if
// needed. A live grain is served under the read lock. Creation takes the
// write lock and re-checks ownership under it, so activation serializes
// against the janitor's deactivation sweep: between the caller's resolve and
// this lock the shard may have moved, in which case the message must park
// (ProxyMoving), not spawn a zombie. A factory refusal is permanent
// (ProxyUnreachable).
func (c *Cluster) activate(name string, shard int) (*grain, actors.ProxyStatus) {
	c.gmu.RLock()
	g, ok := c.grains[name] // Close empties the table, so no closed check here
	c.gmu.RUnlock()
	if ok && !g.deposed.Load() {
		return g, actors.ProxyDelivered
	}
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if c.closed {
		return nil, actors.ProxyUnreachable
	}
	if g, ok := c.grains[name]; ok && !g.deposed.Load() {
		return g, actors.ProxyDelivered
	}
	v := c.mem.load()
	if !v.hosts(shard) || !v.acked {
		return nil, actors.ProxyMoving
	}
	// Fencing grace: a shard this node only just gained (per the sweep's
	// shardSince ledger) may still have a live activation draining on the
	// previous owner. Park until the grace passes.
	if since, ok := c.shardSince[shard]; !ok || time.Since(since) < c.cfg.ActivationGrace {
		return nil, actors.ProxyMoving
	}
	beh := c.cfg.Grain(name)
	if beh == nil {
		return nil, actors.ProxyUnreachable
	}
	g = &grain{shard: shard, epoch: v.epoch}
	g.last.Store(time.Now().UnixNano())
	wrapped := func(ctx *actors.Context, msg any) {
		if g.deposed.Load() || !c.mayHost(shard) {
			// Fencing: this instance lost its shard; whatever is still in
			// its mailbox must not execute concurrently with the successor.
			// The view is checked too, not only the deposed flag: between
			// a view change and the sweep that deposes, the old instance
			// already refuses to run.
			c.fencedDrops.Add(1)
			return
		}
		beh(ctx, msg)
	}
	ref, err := c.sys.Spawn("grain:"+name, wrapped)
	if err != nil {
		return nil, actors.ProxyUnreachable
	}
	g.ref = ref
	c.grains[name] = g
	c.activations.Add(1)
	return g, actors.ProxyDelivered
}

// mayHost reports whether this node may run grains of shard now: it is
// quorate and its current view assigns it the shard.
func (c *Cluster) mayHost(shard int) bool { return c.mem.load().hosts(shard) }

// deposeAll fences every local activation and restarts the activation
// grace of every shard. It runs when this node learns it was declared dead:
// the peers that did so have moved its shards and may host their grains.
func (c *Cluster) deposeAll() {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	for name, g := range c.grains {
		c.deposeLocked(name, g)
		c.handoffsOut.Add(1)
	}
	c.shardSince = map[int]time.Time{}
	c.reconciled = nil
}

// deposeIfActive fences a local activation the ring has moved elsewhere.
// Cheap when there is nothing to do (shared-lock map probe), which is every
// forward on a pure relay node.
func (c *Cluster) deposeIfActive(name string) {
	c.gmu.RLock()
	_, ok := c.grains[name]
	c.gmu.RUnlock()
	if !ok {
		return
	}
	c.gmu.Lock()
	if g, ok := c.grains[name]; ok {
		c.deposeLocked(name, g)
		c.handoffsOut.Add(1)
	}
	c.gmu.Unlock()
}

// deposeLocked fences and stops one activation and forgets it. Callers hold
// gmu and count the deposal as a handoff or a passivation.
func (c *Cluster) deposeLocked(name string, g *grain) {
	g.deposed.Store(true)
	c.sys.Stop(g.ref)
	delete(c.grains, name)
}

// park buffers one message whose shard is mid-handoff. Bounded per shard;
// overflow is the retryable shed (ProxyMoving → DLMoving → ErrShardMoving).
func (c *Cluster) park(shard int, ge GrainEnvelope, sender *actors.Ref, sp *trace.Span) actors.ProxyStatus {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if c.closed {
		return actors.ProxyUnreachable
	}
	q := c.pending[shard]
	if len(q) >= c.cfg.HandoffBuffer {
		return actors.ProxyMoving
	}
	if len(q) == 0 {
		if _, ok := c.movingSince[shard]; !ok {
			c.movingSince[shard] = time.Now()
		}
	}
	c.pending[shard] = append(q, parked{ge: ge, sender: sender, sp: sp})
	c.parkedTotal.Add(1)
	return actors.ProxyDelivered
}

// onMembershipChange receives every accepted membership transition: it
// feeds the flight recorder and triggers an immediate sweep so handoff
// latency is bounded by detection, not by the janitor cadence.
func (c *Cluster) onMembershipChange(changes []memberChange, epoch uint64) {
	for _, ch := range changes {
		if ch.Addr == c.addr && ch.prev == StateDead {
			c.deposeAll()
		}
		// A member we first heard of through gossip (not the seed list) gets
		// its dial-out link now: the link is both the forwarding path and the
		// failure detector, and a member nobody dials is a member nobody can
		// declare dead.
		if ch.fresh && ch.Addr != c.addr && !c.isClosed() {
			_, _ = c.node.RefFor(RouterName + "@" + ch.Addr)
		}
	}
	if rec := c.cfg.Recorder; rec != nil {
		for _, ch := range changes {
			detail := fmt.Sprintf("%s→%s inc=%d epoch=%d", ch.prev, ch.State, ch.Inc, epoch)
			if ch.fresh {
				detail = fmt.Sprintf("joined as %s inc=%d epoch=%d", ch.State, ch.Inc, epoch)
			}
			rec.Record("cluster@"+c.addr, trace.KindLocal, "member:"+ch.Addr, detail)
		}
	}
	c.sweep(time.Now())
}

// janitor drives the cluster's clocks: suspicion promotion, handoff
// completion, parked-message redelivery, and idle passivation.
func (c *Cluster) janitor() {
	defer c.wg.Done()
	interval := c.cfg.SuspectAfter / 8
	if c.cfg.PassivateAfter > 0 && c.cfg.PassivateAfter/4 < interval {
		interval = c.cfg.PassivateAfter / 4
	}
	// At least two sweeps per ActivationGrace, so a shard that bounces away
	// and back between sweeps cannot carry a stale grace timestamp while the
	// interim owner's own grace is still running.
	if g := c.cfg.ActivationGrace / 2; g < interval {
		interval = g
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case now := <-tick.C:
			c.mem.tick(now) // suspect → dead promotions (fire sweep via onChange)
			c.sweep(now)
		}
	}
}

// sweep reconciles local state with the current membership view: grains on
// shards this node no longer owns (or may no longer host, quorum-wise) are
// deposed and stopped; parked messages whose shard has a live owner again
// are redelivered; idle grains passivate. A sweep under the view it last
// reconciled, with passivation off and nothing parked, does no work: the
// grains and the ledger already match that view, and activate creates
// grains only where the view lets this node host them.
func (c *Cluster) sweep(now time.Time) {
	type flush struct {
		shard   int
		batch   []parked
		started time.Time
	}
	var flushes []flush

	c.gmu.Lock()
	if c.closed {
		c.gmu.Unlock()
		return
	}
	v := c.mem.load()
	if !v.sameRouting(c.reconciled) || c.cfg.PassivateAfter > 0 {
		c.reconcileLocked(v, now)
	}
	for shard, q := range c.pending {
		if len(q) == 0 {
			delete(c.pending, shard)
			continue
		}
		sv := v.shards[shard]
		ready := sv.owner != "" && sv.state == StateAlive && !sv.mine
		if v.hosts(shard) {
			// Self-owned: hold the flush until the activation grace has
			// passed and every peer acknowledged our incarnation, or the
			// redelivery would just bounce back into the parking buffer.
			since, have := c.shardSince[shard]
			ready = have && v.acked && now.Sub(since) >= c.cfg.ActivationGrace
		}
		if !ready {
			continue
		}
		started := c.movingSince[shard]
		delete(c.movingSince, shard)
		delete(c.pending, shard)
		flushes = append(flushes, flush{shard: shard, batch: q, started: started})
	}
	c.gmu.Unlock()

	for _, f := range flushes {
		for _, p := range f.batch {
			// The time spent in the buffer is the handoff-park stage of the
			// message's span; a re-park just opens another park interval.
			p.sp.Mark(trace.StagePark, trace.SpanNow())
			// Redelivery re-enters route, which may re-park under a view
			// that shifted again — bounded by the same buffer.
			if st := c.route(p.ge, p.sender, p.sp, false); st == actors.ProxyDelivered {
				c.parkedFlush.Add(1)
			} else {
				c.parkedShed.Add(1)
				p.sp.FinishDead(actors.DLMoving.String(), trace.SpanNow())
			}
		}
		if h := c.handoffHist.Load(); h != nil && !f.started.IsZero() {
			h.Observe(now.Sub(f.started))
		}
	}
}

// reconcileLocked brings the activation-grace ledger and the grain table in
// line with v, passivates idle grains, and records v as reconciled. Callers
// hold gmu.
func (c *Cluster) reconcileLocked(v *view, now time.Time) {
	// Maintain the activation-grace ledger. Losing quorum wipes it: a node
	// readmitted after a partition must re-earn the grace even for shards it
	// held before, because the majority may have hosted them meanwhile.
	if v.quorate {
		for s, sv := range v.shards {
			if _, ok := c.shardSince[s]; sv.mine && !ok {
				c.shardSince[s] = now
			}
		}
		for s := range c.shardSince {
			if !v.shards[s].mine {
				delete(c.shardSince, s)
			}
		}
	} else if len(c.shardSince) > 0 {
		c.shardSince = map[int]time.Time{}
	}
	for name, g := range c.grains {
		lost := !v.hosts(g.shard)
		idle := c.cfg.PassivateAfter > 0 &&
			now.Sub(time.Unix(0, g.last.Load())) >= c.cfg.PassivateAfter &&
			c.sys.MailboxSize(g.ref) == 0
		if !lost && !idle {
			continue
		}
		c.deposeLocked(name, g)
		if lost {
			c.handoffsOut.Add(1)
		} else {
			c.passivations.Add(1)
		}
	}
	c.reconciled = v
}

func (c *Cluster) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Close gossips a best-effort leave, stops the janitor and every local
// grain, and tears down the wire node. Idempotent.
func (c *Cluster) Close() error {
	c.gmu.Lock()
	if c.closed {
		c.gmu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	grains := c.grains
	pending := c.pending
	c.grains = map[string]*grain{}
	c.pending = map[int][]parked{}
	c.gmu.Unlock()
	for _, q := range pending {
		for _, p := range q {
			// Parked messages die with the node; seal their spans so the
			// measurements drain to the ring instead of leaking.
			if p.sp != nil {
				p.sp.Mark(trace.StagePark, trace.SpanNow())
				p.sp.FinishDead(actors.DLMoving.String(), trace.SpanNow())
			}
		}
	}
	c.mem.leave()
	close(c.done)
	c.wg.Wait()
	for _, g := range grains {
		g.deposed.Store(true)
		c.sys.Stop(g.ref)
	}
	return c.node.Close()
}
