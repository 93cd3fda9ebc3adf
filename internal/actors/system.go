package actors

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Behavior processes one message. It is the actor's "script": the runtime
// delivers messages to the current behavior one at a time, so a behavior
// never races with itself.
type Behavior func(ctx *Context, msg any)

// Ref is a location-transparent handle to an actor. Sending to a stopped
// actor routes the message to the system's deadletter hook.
type Ref struct {
	id   uint64
	name string
	sys  *System

	// proxy, when non-nil, makes this Ref a stand-in for an actor that
	// lives elsewhere (another node, a test double): sends are handed to
	// proxy instead of a local mailbox. A non-delivered status deadletters
	// the envelope (DLRemote for unreachable, DLOverloaded for a refused
	// admission). See System.NewProxyRef and internal/remote.
	proxy func(Envelope) ProxyStatus

	// slot, when non-nil, makes this Ref an ask's reply slot rather than an
	// actor: the one message it accepts lands there (see askCtx and
	// System.fillSlot).
	slot *replySlot

	// cell is the local actor this Ref names (nil for proxies and reply
	// slots), so a send reaches the mailbox without a System.actors lookup.
	cell *cell
}

// Name returns the actor's registered name.
func (r *Ref) Name() string {
	if r == nil {
		return "<nil>"
	}
	return r.name
}

// ID returns the Ref's system-unique identity. Remote transports use it to
// route replies back to a specific actor (internal/remote); it carries no
// meaning across systems.
func (r *Ref) ID() uint64 {
	if r == nil {
		return 0
	}
	return r.id
}

func (r *Ref) String() string { return fmt.Sprintf("actor(%s#%d)", r.Name(), r.id) }

// Tell sends msg to the actor asynchronously with no sender. Sends on a
// Ref with no owning system (such as NoRecipient) are silently discarded.
func (r *Ref) Tell(msg any) {
	if r == nil || r.sys == nil {
		return
	}
	r.sys.deliver(r, Envelope{Msg: msg})
}

// TellFrom sends msg recording sender, so the receiver's Context.Sender()
// can reply.
func (r *Ref) TellFrom(sender *Ref, msg any) {
	if r == nil || r.sys == nil {
		return
	}
	r.sys.deliver(r, Envelope{Msg: msg, Sender: sender})
}

// TellFromNoWait is TellFrom for conduits that must never block — the
// remote dispatch path uses it so a full bounded mailbox can never stall a
// connection's reader goroutine. Where TellFrom would block (MailboxBlock
// policy, queue full) the message is shed and deadlettered as DLOverloaded
// instead. It reports whether the message was enqueued (or accepted by a
// proxy); false means it deadlettered — shed, dropped, or target gone.
func (r *Ref) TellFromNoWait(sender *Ref, msg any) bool {
	if r == nil || r.sys == nil {
		return false
	}
	return r.sys.sendMode(r, Envelope{Msg: msg, Sender: sender}, putNoWait) == statusDelivered
}

// TellSpan sends msg continuing the given trace span (which may be nil),
// recording sender. It never originates a new trace — the conduits that use
// it (cluster routing, tests) carry the origin's sampling decision in sp —
// and honors the target's admission policy like TellFrom.
func (r *Ref) TellSpan(sender *Ref, msg any, sp *trace.Span) {
	if r == nil || r.sys == nil {
		sp.FinishDead(DLNoRecipient.String(), trace.SpanNow())
		return
	}
	r.sys.deliver(r, Envelope{Msg: msg, Sender: sender, Span: sp, noTrace: true})
}

// TellSpanNoWait is TellSpan with TellFromNoWait's never-block contract: the
// remote dispatch path uses it so a traced delivery can continue its span
// without ever stalling a connection's reader goroutine. release, when
// non-nil, runs exactly once, when the message leaves the runtime's custody:
// dequeued by the worker that runs it, deadlettered (before TellSpanNoWait
// returns false, or later if the actor stops with it queued), or taken by a
// reply slot or proxy. It runs on whichever goroutine that happens on, so it
// must be cheap.
func (r *Ref) TellSpanNoWait(sender *Ref, msg any, sp *trace.Span, release func()) bool {
	if r == nil || r.sys == nil {
		sp.FinishDead(DLNoRecipient.String(), trace.SpanNow())
		if release != nil {
			release()
		}
		return false
	}
	e := Envelope{Msg: msg, Sender: sender, Span: sp, noTrace: true, release: release}
	return r.sys.sendMode(r, e, putNoWait) == statusDelivered
}

// Config controls a System.
type Config struct {
	// PerturbSeed, when non-zero, makes every actor process each batch it
	// drains from its mailbox (up to Throughput messages) in random order,
	// seeded deterministically per actor, instead of FIFO. This exhibits
	// the Actor model's unordered asynchronous delivery, the behavior behind
	// the paper's misconception [I2]M5 ("conflate message sending order
	// with receiving order").
	PerturbSeed int64
	// MailboxCap, when positive, bounds every mailbox: a full queue applies
	// MailboxPolicy to the sender (block / shed / park-sender) instead of
	// queueing without limit. The bound counts queued messages; the batch a
	// worker has already drained and not yet processed, at most Throughput,
	// is beyond it. Control messages (poison pills) bypass the bound so
	// shutdown cannot deadlock.
	MailboxCap int
	// MailboxPolicy selects what a full bounded mailbox does to non-control
	// senders: MailboxBlock (default) blocks them, MailboxShed deadletters
	// the message as DLOverloaded, MailboxParkSender blocks for at most
	// ParkTimeout then sheds. Ignored when MailboxCap is zero.
	MailboxPolicy MailboxPolicy
	// ParkTimeout bounds a MailboxParkSender wait (default 1ms).
	ParkTimeout time.Duration
	// DeadLetter, when non-nil, receives messages sent to stopped actors.
	// The to argument is never nil: a message that had no recipient at all
	// (for example Context.Reply with no recorded sender) arrives addressed
	// to the NoRecipient sentinel, so hooks may call to.Name() and friends
	// unconditionally.
	DeadLetter func(to *Ref, e Envelope)
	// Recorder, when non-nil, records every send and receive with vector
	// clocks, so delivered messages carry happened-before edges (Lamport's
	// relation, the paper's reference [3]). Sends from outside any actor
	// are attributed to the pseudo-task "external".
	Recorder *trace.Recorder
	// OnPanic, when non-nil, observes panics raised by behaviors
	// (including injected ones). An unsupervised panicking actor is
	// terminated (its queued messages become deadletters) rather than
	// crashing the process; a supervised actor is handled by its
	// supervisor's restart strategy (see Supervise).
	OnPanic func(ref *Ref, recovered any)
	// Injector, when non-nil, is consulted on the message path: at
	// faults.SiteSend before a message is enqueued (ActDrop deadletters it,
	// ActDelay stalls the sender), at faults.SiteReceive before a dequeued
	// message is processed (ActDelay models a slow consumer), and at
	// faults.SiteBehavior before the behavior runs (ActPanic crashes the
	// actor instead of running the behavior, leaving state unmutated).
	// Control messages (poison pills, restart directives) bypass injection
	// so shutdown and supervision cannot be faulted away.
	Injector faults.Injector
	// OnLifecycle, when non-nil, observes supervision lifecycle events
	// (Started, Restarted, Stopped, Escalated) for every supervised actor,
	// in addition to any per-supervisor OnEvent hook.
	OnLifecycle func(ev LifecycleEvent)
	// PoolSize is the number of worker goroutines every actor runs on
	// (default runtime.GOMAXPROCS(0)); idle actors cost no goroutine (see
	// dispatch.go).
	PoolSize int
	// Throughput bounds how many messages an actor processes per
	// scheduling slice: the fairness quantum after which it yields its
	// worker, and the largest batch drained from its mailbox at once
	// (default 64).
	Throughput int
	// Obs, when non-nil, turns on hot-path latency instrumentation
	// (sampled mailbox queue wait and handler time) and, with Obs.Conserve,
	// the exact message conservation ledger. Nil (the default) keeps the
	// message path free of timestamp reads and shared-counter contention;
	// see NewObs.
	Obs *Obs
	// Tracer, when non-nil, turns on sampled distributed tracing: one in
	// Tracer.SampleEvery sends entering the system from outside a traced
	// context originates a trace.Span that rides the envelope through every
	// mailbox, handler, wire link and cluster handoff it crosses,
	// accumulating a per-stage latency ledger (docs/OBSERVABILITY.md
	// "Distributed tracing"). Nil (the default) keeps the message path at
	// one predictable branch per send.
	Tracer *trace.Tracer
}

// System owns a set of actors and their mailboxes.
type System struct {
	cfg        Config
	throughput int
	mu         sync.Mutex
	nextID     atomic.Uint64
	actors     map[uint64]*cell
	stopped    atomic.Bool
	wg         sync.WaitGroup

	// slots holds the reply slots of asks still waiting (see slotTable).
	slots slotTable

	// The worker pool every actor runs on (dispatch.go).
	runq     *runQueue
	workerWG sync.WaitGroup

	deadletters atomic.Int64
	dlByKind    [dlKinds]atomic.Int64
	processed   atomic.Int64
	traceSeq    atomic.Int64 // last Envelope.traceSeq issued
	panics      atomic.Int64
	injected    atomic.Int64
	restarts    atomic.Int64

	// Message conservation ledger (see CheckConservation), maintained only
	// when cfg.Obs.Conserve is set (conserve caches that). Enqueue/dequeue
	// are striped so 8-way parallel senders don't serialize on one cache
	// line; drain is a cold path. obsSample is the latency sampling rate
	// handed to every mailbox (0 when Obs is nil) and obsMask its mask for
	// the dequeue-side tick; both fixed at construction.
	enqueued  metrics.StripedCounter
	dequeued  metrics.StripedCounter
	drained   atomic.Int64
	conserve  bool
	obsSample uint64
	obsMask   uint64
}

// cell is the runtime state of one actor.
type cell struct {
	ref      *Ref
	mbox     *mailbox
	behavior Behavior
	ctx      *Context
	done     chan struct{}

	// sched is the cell's run-queue state (cellIdle / cellScheduled).
	sched atomic.Int32

	// gone is set by teardown before the mailbox closes: sends that see it
	// deadletter as DLDead, like sends to an unknown actor.
	gone atomic.Bool

	// held, resume and backoff carry a cell across a restart backoff
	// (System.park): the messages already dequeued when the actor parked,
	// the supervision directive to finish before they run, and the delay.
	// Only the worker holding the schedule flag touches them.
	held    []Envelope
	resume  func() bool
	backoff time.Duration

	// obsTick counts processed messages for handler latency sampling. A
	// plain field: only the single consumer touches it (same publication
	// rules as behavior above).
	obsTick uint64

	// perturb shuffles each drained batch under Config.PerturbSeed (nil
	// otherwise). Only the worker holding the schedule flag touches it, so
	// it needs no lock.
	perturb *rand.Rand

	// gen counts Become calls since the last (re)start: the behavior
	// generation. Only the consumer touches it (same publication
	// rules as behavior above). A restart resets it to zero — the factory
	// reinstalls the initial behavior — which is exactly the rollback the
	// stale-behavior detector watches for.
	gen int

	// Supervision state; nil/zero for unsupervised actors. factory rebuilds
	// the initial behavior on restart; restarts counts panics survived.
	sup      *Supervisor
	factory  func() Behavior
	restarts int
}

// stopMsg is the internal poison-pill control message.
type stopMsg struct{}

// restartMsg is the internal control message a supervisor uses to force a
// sibling restart under the all-for-one strategy. Like stopMsg it bypasses
// mailbox bounds and fault injection.
type restartMsg struct{ reason any }

// isControl reports whether msg is an internal control message.
func isControl(msg any) bool {
	switch msg.(type) {
	case stopMsg, restartMsg:
		return true
	}
	return false
}

// ErrSystemStopped is returned by Spawn after Shutdown.
var ErrSystemStopped = errors.New("actors: system is shut down")

// NoRecipient is the sentinel Ref handed to DeadLetter hooks for messages
// that had no recipient at all (e.g. Context.Reply when no sender was
// recorded). Sends on it are discarded; it belongs to no system.
var NoRecipient = &Ref{name: "no-recipient"}

// NewSystem creates an actor system with the given config.
func NewSystem(cfg Config) *System {
	s := &System{cfg: cfg, actors: make(map[uint64]*cell)}
	s.throughput = cfg.Throughput
	if s.throughput <= 0 {
		s.throughput = 64
	}
	if cfg.Obs == nil {
		s.cfg.Obs = defaultObs.Load()
	}
	if cfg.Recorder == nil {
		s.cfg.Recorder = defaultRecorder.Load()
	}
	if cfg.Tracer == nil {
		s.cfg.Tracer = defaultTracer.Load()
	}
	if o := s.cfg.Obs; o != nil {
		s.obsSample = o.sampleRate()
		s.obsMask = s.obsSample - 1
		s.conserve = o.Conserve
	}
	workers := cfg.PoolSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.runq = &runQueue{}
	s.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Spawn creates an actor with the given name and initial behavior and starts
// processing its mailbox. Names need not be unique; the Ref is the identity.
func (s *System) Spawn(name string, b Behavior) (*Ref, error) {
	if b == nil {
		return nil, errors.New("actors: nil behavior")
	}
	return s.spawn(name, b, nil, nil)
}

// spawn creates the cell; sup/factory are non-nil for supervised actors.
func (s *System) spawn(name string, b Behavior, sup *Supervisor, factory func() Behavior) (*Ref, error) {
	s.mu.Lock()
	if s.stopped.Load() {
		s.mu.Unlock()
		return nil, ErrSystemStopped
	}
	id := s.nextID.Add(1)
	ref := &Ref{id: id, name: name, sys: s}
	parkFor := s.cfg.ParkTimeout
	if parkFor <= 0 {
		parkFor = time.Millisecond
	}
	c := &cell{
		ref:      ref,
		mbox:     newMailbox(s.cfg.MailboxCap, s.cfg.MailboxPolicy, parkFor, s.obsSample),
		behavior: b,
		done:     make(chan struct{}),
		sup:      sup,
		factory:  factory,
	}
	if s.cfg.PerturbSeed != 0 {
		c.perturb = rand.New(rand.NewSource(s.cfg.PerturbSeed + int64(id)))
	}
	c.ctx = &Context{system: s, self: ref, cell: c}
	ref.cell = c
	s.actors[id] = c
	s.wg.Add(1)
	s.mu.Unlock()
	// The actor costs nothing more until its first message schedules it
	// onto a worker.
	return ref, nil
}

// MustSpawn is Spawn that panics on error, for examples and tests.
func (s *System) MustSpawn(name string, b Behavior) *Ref {
	ref, err := s.Spawn(name, b)
	if err != nil {
		panic(err)
	}
	return ref
}

// teardown finalizes a terminated actor: it stops accepting sends, its
// unprocessed messages (rest, already dequeued, then whatever is still
// queued) become deadletters, its supervisor learns of the exit, and
// waiters (Await, Shutdown) are released. Called exactly once per cell, by
// the worker that observed the exit while holding the cell's schedule flag,
// so no other worker can be touching the mailbox.
func (s *System) teardown(c *cell, rest []Envelope) {
	c.gone.Store(true)
	s.mu.Lock()
	delete(s.actors, c.ref.id)
	s.mu.Unlock()
	for _, batch := range [][]Envelope{rest, c.mbox.close()} {
		for _, e := range batch {
			if s.conserve && !isControl(e.Msg) {
				s.drained.Add(1)
			}
			s.deadletterKind(c.ref, e, DLClosed)
		}
	}
	if c.sup != nil {
		c.sup.childExited(c.ref)
	}
	// A Ref outlives its actor and holds the cell, whose gone flag and
	// mailbox later sends still read. Drop what nothing reads after exit,
	// so a stale Ref keeps neither the behavior's state nor, through the
	// last sender, other dead actors reachable.
	c.behavior, c.factory, c.held, c.resume = nil, nil, nil, nil
	c.ctx.sender = nil
	close(c.done)
	s.wg.Done()
}

// processOne delivers a single envelope to the actor: control messages,
// receive/behavior fault-injection sites, trace recording, the behavior
// call, and panic/supervision handling. It reports what becomes of the
// actor: it goes on, exits (the caller then runs teardown), or parks for a
// restart backoff.
func (s *System) processOne(c *cell, e Envelope) step {
	if e.release != nil {
		e.release()
	}
	ctx := c.ctx
	switch m := e.Msg.(type) {
	case stopMsg:
		s.emitStopped(c, nil)
		return stepExit
	case restartMsg:
		// Forced restart (all-for-one sibling, or subtree restart on
		// escalation). Takes effect after the messages that were queued
		// ahead of it; it does not count against the child's own budget.
		s.restart(c, m.reason)
		return stepNext
	}
	obs := s.cfg.Obs
	var timeHandler bool
	if obs != nil {
		if s.conserve {
			s.dequeued.Add(1)
		}
		// The handler sampling tick is a plain field: processOne is
		// single-consumer per cell (the worker holding the schedule flag),
		// so no atomic is needed.
		timeHandler = c.obsTick&s.obsMask == 0
		c.obsTick++
		if e.enqueuedAt != 0 {
			// Queue wait ends at dequeue, before any receive-site fault
			// delay — an injected slow consumer shows up in handler-side
			// stalls, not as phantom mailbox residency.
			obs.QueueWait.Observe(time.Duration(time.Now().UnixNano() - e.enqueuedAt))
		}
	}
	// Receive-site fault injection: a slow consumer stalls here, after
	// dequeue and before processing.
	if d := s.decide(faults.SiteReceive, c.ref.name, e.Msg); d.Action == faults.ActDelay {
		s.recordFault(c.ref, faults.SiteReceive, e.Msg, d)
		time.Sleep(d.Delay)
	}
	if s.cfg.Recorder != nil && e.traceSeq != 0 {
		s.cfg.Recorder.RecordReceive(c.ref.String(), traceID(c.ref, e.traceSeq), fmt.Sprintf("%T", e.Msg))
	}
	// Traced delivery: close the mailbox stage (origination/arrival →
	// dequeue) and expose the span to the behavior, so in-handler sends can
	// continue the trace.
	sp := e.Span
	if sp != nil {
		sp.Mark(trace.StageMailbox, trace.SpanNow())
		ctx.span = sp
	}
	ctx.sender = e.Sender
	var panicked bool
	var reason any
	if d := s.decide(faults.SiteBehavior, c.ref.name, e.Msg); d.Action == faults.ActPanic {
		// Injected crash: the behavior never runs, so actor state is not
		// half-mutated — the message is simply lost with the crash.
		panicked = true
		reason = faults.InjectedPanic{Op: faults.Op{
			Site: faults.SiteBehavior, Actor: c.ref.name, Msg: fmt.Sprintf("%T", e.Msg),
		}}
		s.recordFault(c.ref, faults.SiteBehavior, e.Msg, d)
		s.panics.Add(1)
		if s.cfg.OnPanic != nil {
			s.cfg.OnPanic(c.ref, reason)
		}
	} else if timeHandler {
		t := obs.Handler.Start()
		panicked, reason = s.invoke(c, ctx, e.Msg)
		t.Stop()
	} else {
		panicked, reason = s.invoke(c, ctx, e.Msg)
	}
	if sp != nil {
		now := trace.SpanNow()
		if panicked {
			sp.FinishDead("panic", now)
		} else {
			sp.Mark(trace.StageHandler, now)
			sp.Finish(now)
		}
		ctx.span = nil
	}
	if panicked {
		if c.sup == nil {
			// Unsupervised: the actor dies, the process lives.
			s.emitStopped(c, reason)
			return stepExit
		}
		return s.superviseFailure(c, reason)
	}
	s.processed.Add(1)
	if ctx.stopped {
		s.emitStopped(c, nil)
		return stepExit
	}
	return stepNext
}

// invoke runs one behavior call, trapping panics. It reports whether the
// behavior panicked and with what value.
func (s *System) invoke(c *cell, ctx *Context, msg any) (panicked bool, recovered any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			recovered = r
			s.panics.Add(1)
			if s.cfg.OnPanic != nil {
				s.cfg.OnPanic(c.ref, r)
			}
		}
	}()
	c.behavior(ctx, msg)
	return false, nil
}

// superviseFailure consults the cell's supervisor about a panic and applies
// the directive: restart in place, or stop after an escalation has run.
// A directive with a backoff parks the cell instead of sleeping on the
// worker, so neither the supervisor, the siblings nor any other actor
// waits for it: superviseFailure records the delay and the directive, and
// runSlice starts the timer once it has set the unprocessed batch aside.
// The directive finishes when the timer re-queues the cell.
func (s *System) superviseFailure(c *cell, reason any) step {
	restart, delay, escalation := c.sup.onChildFailure(c.ref, reason)
	finish := func() bool {
		if escalation != nil {
			escalation()
		}
		if !restart {
			s.emitStopped(c, reason)
			return false
		}
		s.restart(c, reason)
		return true
	}
	switch {
	case delay > 0:
		c.resume, c.backoff = finish, delay
		return stepPark
	case finish():
		return stepNext
	default:
		return stepExit
	}
}

// restart resets the cell's behavior from its factory and emits the
// Restarted lifecycle event. The Ref and mailbox survive: queued messages
// are processed by the fresh behavior.
func (s *System) restart(c *cell, reason any) {
	if c.factory != nil {
		c.behavior = c.factory()
	}
	c.gen = 0
	c.restarts++
	s.restarts.Add(1)
	s.emitLifecycle(c.sup, LifecycleEvent{
		Kind: LifecycleRestarted, Ref: c.ref, Reason: reason, Restarts: c.restarts,
	})
}

// emitStopped emits the Stopped lifecycle event for a terminating actor.
func (s *System) emitStopped(c *cell, reason any) {
	s.emitLifecycle(c.sup, LifecycleEvent{Kind: LifecycleStopped, Ref: c.ref, Reason: reason})
}

// emitLifecycle fans a lifecycle event out to the supervisor's OnEvent hook,
// the system-wide OnLifecycle hook, and the trace recorder.
func (s *System) emitLifecycle(sup *Supervisor, ev LifecycleEvent) {
	if sup != nil {
		ev.Supervisor = sup.name
		if sup.spec.OnEvent != nil {
			sup.spec.OnEvent(ev)
		}
	}
	if s.cfg.OnLifecycle != nil {
		s.cfg.OnLifecycle(ev)
	}
	// Only supervised actors add lifecycle events to the trace: an
	// unsupervised actor's exit is causally unrelated to other tasks, and
	// recording it would pollute happened-before analyses of pure
	// message-passing protocols.
	if s.cfg.Recorder != nil && sup != nil {
		kind := trace.KindExit
		switch ev.Kind {
		case LifecycleStarted:
			kind = trace.KindSpawn
		case LifecycleRestarted:
			kind = trace.KindRestart
		case LifecycleEscalated:
			kind = trace.KindFault
		}
		s.cfg.Recorder.Record(ev.Ref.String(), kind, ev.Supervisor, ev.Kind.String())
	}
}

// decide consults the configured injector for one operation.
func (s *System) decide(site faults.Site, actor string, msg any) faults.Decision {
	if s.cfg.Injector == nil {
		return faults.Decision{}
	}
	return s.cfg.Injector.Decide(faults.Op{Site: site, Actor: actor, Msg: fmt.Sprintf("%T", msg)})
}

// recordFault counts an injected fault and records it in the trace.
func (s *System) recordFault(ref *Ref, site faults.Site, msg any, d faults.Decision) {
	s.injected.Add(1)
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Record(ref.String(), trace.KindFault, string(site),
			fmt.Sprintf("%s %T", d.Action, msg))
	}
}

// deliverStatus reports what became of a send.
type deliverStatus int

const (
	// statusDelivered: the message was enqueued.
	statusDelivered deliverStatus = iota
	// statusDropped: a fault injector discarded the message (deadlettered).
	statusDropped
	// statusDead: the target is stopped, foreign, or nil (deadlettered).
	statusDead
	// statusUnreachable: a proxy could not forward the message — the remote
	// peer is down (deadlettered as DLRemote). Unlike statusDead this is
	// transient: the peer may reconnect, so Ask surfaces it as
	// ErrPeerUnreachable, which AskRetry retries.
	statusUnreachable
	// statusOverloaded: admission control shed the message — a bounded
	// mailbox full under a shedding policy, or a remote link's outbox full
	// while the peer is out of credits (deadlettered as DLOverloaded).
	// Transient like statusUnreachable: the backlog drains, so Ask surfaces
	// it as ErrOverloaded, which AskRetry backs off on.
	statusOverloaded
	// statusMoving: the target grain's shard is mid-handoff between cluster
	// nodes and the proxy could neither forward nor buffer the message
	// (deadlettered as DLMoving). Transient by construction — the rebalance
	// completes — so Ask surfaces it as ErrShardMoving, which AskRetry backs
	// off on.
	statusMoving
)

func (s *System) deliver(to *Ref, e Envelope) { s.send(to, e) }

// send delivers an envelope and reports what happened, so synchronous
// bridges like Ask can fail fast on dead targets.
func (s *System) send(to *Ref, e Envelope) deliverStatus {
	return s.sendMode(to, e, putWait)
}

// sendMode is send with the caller's waiting budget: putWait honors the
// target's admission policy, putNoWait sheds where putWait would block.
// (putForce is chosen internally for control messages, never by callers.)
func (s *System) sendMode(to *Ref, e Envelope, mode putMode) deliverStatus {
	if to == nil {
		s.deadletterKind(to, e, DLNoRecipient)
		return statusDead
	}
	if to.sys != s {
		s.deadletterKind(to, e, DLDead)
		return statusDead
	}
	ctrl := isControl(e.Msg)
	if !ctrl {
		switch d := s.decide(faults.SiteSend, to.name, e.Msg); d.Action {
		case faults.ActDrop:
			s.recordFault(to, faults.SiteSend, e.Msg, d)
			s.deadletterKind(to, e, DLDropped)
			return statusDropped
		case faults.ActDelay:
			s.recordFault(to, faults.SiteSend, e.Msg, d)
			time.Sleep(d.Delay)
		}
	}
	// Trace origination: a sampled send entering the system from outside a
	// traced context grows a span here, before the proxy branch, so remote
	// and clustered sends are traced from the same point local ones are.
	// In-handler sends and remote deliveries arrive with Span already set
	// (continuing their trace) or noTrace set (the origin declined), so the
	// untraced hot path pays one branch.
	if tr := s.cfg.Tracer; tr != nil && e.Span == nil && !e.noTrace && !ctrl && tr.Sample() {
		e.Span = tr.Root(to.name, fmt.Sprintf("%T", e.Msg), trace.SpanNow())
	}
	if to.proxy != nil {
		// Proxied (e.g. remote) target. Control messages never cross a
		// proxy — a poison pill is a local-system directive, not a wire
		// message — and a proxy that cannot forward deadletters instead of
		// blocking the sender. Both failure statuses are transient (the
		// peer may come back, the backlog may drain), so each keeps its own
		// kind: DLRemote for an unreachable peer, DLOverloaded for a full
		// outbox / exhausted credit window.
		if ctrl {
			s.deadletterKind(to, e, DLRemote)
			return statusDead
		}
		switch to.proxy(e) {
		case ProxyUnreachable:
			s.deadletterKind(to, e, DLRemote)
			return statusUnreachable
		case ProxyOverloaded:
			s.deadletterKind(to, e, DLOverloaded)
			return statusOverloaded
		case ProxyMoving:
			s.deadletterKind(to, e, DLMoving)
			return statusMoving
		}
		if e.release != nil {
			e.release()
		}
		return statusDelivered
	}
	if s.cfg.Recorder != nil && !ctrl {
		e.traceSeq = s.traceSeq.Add(1)
		s.cfg.Recorder.RecordSend(senderName(e.Sender), traceID(to, e.traceSeq), fmt.Sprintf("%T", e.Msg))
	}
	if to.slot != nil {
		return s.fillSlot(to, e, ctrl)
	}
	c := to.cell
	if c.gone.Load() {
		s.deadletterKind(to, e, DLDead)
		return statusDead
	}
	if ctrl {
		mode = putForce
	}
	res := c.mbox.put(e, mode)
	if res == putFull {
		// Managed blocking: the sending behavior's worker hands its slot to
		// a spare for the wait, so a pool of any size keeps running the
		// consumer being waited on. e.Sender is the sending actor, whose
		// system owns that worker.
		pool := e.Sender.sys
		pool.startSpare()
		res = c.mbox.put(e, putWait)
		pool.runq.retireOne()
	}
	switch res {
	case putClosed:
		s.deadletterKind(to, e, DLClosed)
		return statusDead
	case putShed:
		s.deadletterKind(to, e, DLOverloaded)
		return statusOverloaded
	}
	// Ledger add after a successful put, so conservation sees only messages
	// that actually entered a mailbox. (Latency sampling is not here: the
	// mailbox itself stamps one in obsSample accepted envelopes, riding its
	// reservation counter — see newMailbox.)
	if s.conserve && !ctrl {
		s.enqueued.Add(1)
	}
	// The message is in the mailbox: make sure a worker will visit the actor.
	s.schedule(c)
	return statusDelivered
}

func senderName(r *Ref) string {
	if r == nil {
		return "external"
	}
	return r.String()
}

// traceID names one message's send/receive pair in the trace recorder.
func traceID(to *Ref, seq int64) string { return fmt.Sprintf("%s#%d", to.String(), seq) }

// DeadLetterKind classifies why a message became a deadletter, so remote
// deadletters (an unreachable peer) are distinguishable from a stopped
// actor or an injected drop. Kinds are surfaced through RegisterMetrics.
type DeadLetterKind int

const (
	// DLNoRecipient: the message had no recipient at all (nil Ref,
	// Context.Reply with no recorded sender).
	DLNoRecipient DeadLetterKind = iota
	// DLDead: the target is stopped or belongs to another system.
	DLDead
	// DLClosed: the target's mailbox closed with the message queued or
	// mid-put — the close-time drain.
	DLClosed
	// DLDropped: a fault injector discarded the send.
	DLDropped
	// DLRemote: a proxy (remote) target could not forward the message —
	// peer unreachable, or a control message that cannot cross a proxy.
	DLRemote
	// DLOverloaded: admission control shed the message — a bounded mailbox
	// full under MailboxShed (or a ParkSender timeout), or a remote link
	// whose outbox/credit window had no room. Distinct from DLRemote so
	// dashboards can tell "peer down" from "peer slow".
	DLOverloaded
	// DLMoving: the target grain's shard was mid-handoff between cluster
	// nodes and the cluster proxy could neither forward nor buffer
	// (internal/cluster). Distinct from DLOverloaded so dashboards can tell
	// "rebalancing" from "peer slow"; like DLRemote it is a transient signal
	// the AskRetry layer absorbs.
	DLMoving

	dlKinds = int(DLMoving) + 1
)

func (k DeadLetterKind) String() string {
	switch k {
	case DLNoRecipient:
		return "norecipient"
	case DLDead:
		return "dead"
	case DLClosed:
		return "closed"
	case DLDropped:
		return "dropped"
	case DLRemote:
		return "remote"
	case DLOverloaded:
		return "overloaded"
	case DLMoving:
		return "moving"
	default:
		return fmt.Sprintf("DeadLetterKind(%d)", int(k))
	}
}

func (s *System) deadletterKind(to *Ref, e Envelope, kind DeadLetterKind) {
	if e.release != nil {
		e.release()
		e.release = nil // the hook below may resend e
	}
	s.deadletters.Add(1)
	s.dlByKind[kind].Add(1)
	// A traced message that dies is still a finished span: seal it with the
	// deadletter kind so the trace that died stays inspectable end to end.
	if e.Span != nil {
		e.Span.FinishDead(kind.String(), trace.SpanNow())
	}
	if s.cfg.Recorder != nil && !isControl(e.Msg) {
		// The orphaned-protocol detector consumes these: Task is the sender
		// whose message died, Object the intended recipient, Detail the kind
		// plus payload type (which is how a later retry is matched up). A
		// traced envelope appends its TraceID so an orphaned-protocol finding
		// links back to the exact trace that died.
		dest := to
		if dest == nil {
			dest = NoRecipient
		}
		detail := fmt.Sprintf("%s %T", kind, e.Msg)
		if e.Span != nil {
			detail = fmt.Sprintf("%s trace=%016x", detail, e.Span.Trace)
		}
		s.cfg.Recorder.Record(senderName(e.Sender), trace.KindDeadLetter, dest.String(), detail)
	}
	if s.cfg.DeadLetter != nil {
		if to == nil {
			// Never hand user hooks a nil receiver: a message with no
			// recipient at all is addressed to the NoRecipient sentinel.
			to = NoRecipient
		}
		s.cfg.DeadLetter(to, e)
	}
}

// DeadLettersOf returns the count of deadletters of one kind.
func (s *System) DeadLettersOf(kind DeadLetterKind) int64 {
	if int(kind) < 0 || int(kind) >= dlKinds {
		return 0
	}
	return s.dlByKind[kind].Load()
}

// Stop asks the actor to terminate after the messages already in its
// mailbox. Further sends go to deadletters once it terminates.
func (s *System) Stop(ref *Ref) { s.deliver(ref, Envelope{Msg: stopMsg{}}) }

// Await blocks until the actor has terminated.
func (s *System) Await(ref *Ref) {
	s.mu.Lock()
	c, ok := s.actors[ref.id]
	s.mu.Unlock()
	if !ok {
		return
	}
	<-c.done
}

// Alive reports whether the actor is still running.
func (s *System) Alive(ref *Ref) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.actors[ref.id]
	return ok
}

// MailboxSize returns the number of messages queued for ref: 0 if it has
// stopped or belongs to another system, and always 0 for a proxy or an
// ask's reply slot, which have no mailbox. It takes no lock.
func (s *System) MailboxSize(ref *Ref) int {
	if ref == nil || ref.sys != s || ref.cell == nil || ref.cell.gone.Load() {
		return 0
	}
	return ref.cell.mbox.size()
}

// Processed returns the total number of messages processed by all actors.
func (s *System) Processed() int64 { return s.processed.Load() }

// Tracer returns the system's distributed tracer, nil when tracing is off.
// The wire layer consults it to tell peers whether it adopts migrating spans.
func (s *System) Tracer() *trace.Tracer { return s.cfg.Tracer }

// DeadLetters returns the count of undeliverable messages.
func (s *System) DeadLetters() int64 { return s.deadletters.Load() }

// Panics returns the count of behavior panics trapped by the system,
// injected ones included.
func (s *System) Panics() int64 { return s.panics.Load() }

// FaultsInjected returns the count of faults the configured injector has
// applied (drops, delays, and panics across all sites).
func (s *System) FaultsInjected() int64 { return s.injected.Load() }

// Restarts returns the count of supervised actor restarts (including forced
// all-for-one sibling restarts).
func (s *System) Restarts() int64 { return s.restarts.Load() }

// Shutdown stops every actor (poison pill after queued messages) and waits
// for all of them to terminate, then retires the worker pool. The system
// accepts no further Spawns.
func (s *System) Shutdown() {
	s.mu.Lock()
	if s.stopped.Load() {
		s.mu.Unlock()
		s.wg.Wait()
		s.stopPool()
		return
	}
	s.stopped.Store(true)
	// Mark the quiesce point in the trace before any actor is stopped:
	// deadletters after this marker are teardown noise (late sends into a
	// system that is deliberately winding down), which the orphaned-protocol
	// detector must not report.
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Record("system", trace.KindExit, "shutdown", "")
	}
	refs := make([]*Ref, 0, len(s.actors))
	for _, c := range s.actors {
		refs = append(refs, c.ref)
	}
	s.mu.Unlock()
	for _, r := range refs {
		s.Stop(r)
	}
	s.wg.Wait()
	s.stopPool()
}

// stopPool stops the workers. Idempotent. Only called after every actor has
// terminated, so the run queue can hold no live work.
func (s *System) stopPool() {
	s.runq.close()
	s.workerWG.Wait()
}

// Context is the per-delivery view an actor has of itself and the system.
// It implements the Actor axioms: Send (to any Ref), Spawn (create actors),
// and Become (designate how to handle the next message).
type Context struct {
	system  *System
	self    *Ref
	cell    *cell
	sender  *Ref
	stopped bool

	// span is the trace context of the message being processed (nil when
	// untraced); processOne seals it when the behavior returns.
	span *trace.Span
}

// Self returns the actor's own Ref.
func (c *Context) Self() *Ref { return c.self }

// Sender returns the Ref recorded by TellFrom/ctx.Send for the message being
// processed, or nil.
func (c *Context) Sender() *Ref { return c.sender }

// System returns the owning system, e.g. for Spawn from outside helpers.
func (c *Context) System() *System { return c.system }

// Send sends msg to to, recording this actor as the sender. When the
// message being processed is traced, the send continues its trace as a
// child span (the next hop); when it is not, the send is marked untraced so
// no trace can begin mid-protocol. A send that must wait on a full
// MailboxBlock mailbox hands this actor's worker slot to a spare worker for
// the wait (see sendMode).
func (c *Context) Send(to *Ref, msg any) {
	if to == nil || to.sys == nil {
		return
	}
	e := Envelope{Msg: msg, Sender: c.self, noTrace: true}
	if c.span != nil {
		if tr := c.system.cfg.Tracer; tr != nil {
			e.Span = tr.Child(c.span, to.name, fmt.Sprintf("%T", msg), trace.SpanNow())
		}
	}
	to.sys.sendMode(to, e, putManaged)
}

// Span returns the trace span riding the message being processed, nil when
// the message is untraced.
func (c *Context) Span() *trace.Span { return c.span }

// Reply sends msg to the sender of the current message; it is a deadletter
// if the sender was not recorded.
func (c *Context) Reply(msg any) {
	if c.sender == nil {
		c.system.deadletterKind(nil, Envelope{Msg: msg, Sender: c.self}, DLNoRecipient)
		return
	}
	c.Send(c.sender, msg)
}

// Spawn creates a child actor in the same system.
func (c *Context) Spawn(name string, b Behavior) (*Ref, error) {
	return c.system.Spawn(name, b)
}

// Become replaces the actor's behavior for subsequent messages. Each swap
// advances the cell's behavior generation and is recorded as a
// trace.KindBecome event, which is what the stale-behavior detector
// (internal/detect) keys on.
func (c *Context) Become(b Behavior) {
	if b == nil {
		return
	}
	c.cell.behavior = b
	c.cell.gen++
	if r := c.system.cfg.Recorder; r != nil {
		r.Record(c.self.String(), trace.KindBecome, fmt.Sprintf("gen=%d", c.cell.gen), "")
	}
}

// Stop terminates this actor after the current message.
func (c *Context) Stop() { c.stopped = true }
