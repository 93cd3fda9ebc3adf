package actors

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Strategy selects how a supervisor reacts to a child's failure, after the
// Erlang/OTP vocabulary the actor literature (and the Torres Lopez et al.
// bug study in PAPERS.md) builds on.
type Strategy int

const (
	// OneForOne restarts only the failing child.
	OneForOne Strategy = iota
	// AllForOne restarts the failing child and force-restarts every sibling
	// (their state is reset from their factories too).
	AllForOne
)

func (s Strategy) String() string {
	switch s {
	case OneForOne:
		return "one-for-one"
	case AllForOne:
		return "all-for-one"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// LifecycleKind classifies supervision lifecycle events.
type LifecycleKind int

const (
	// LifecycleStarted: a supervised actor was (re)spawned with a fresh Ref.
	LifecycleStarted LifecycleKind = iota
	// LifecycleRestarted: a supervised actor's behavior was reset in place;
	// its Ref and mailbox survived.
	LifecycleRestarted
	// LifecycleStopped: an actor terminated (poison pill, ctx.Stop, or a
	// failure its supervisor would not restart).
	LifecycleStopped
	// LifecycleEscalated: a child exhausted its restart budget and the
	// failure was handed to the supervisor's parent.
	LifecycleEscalated
)

func (k LifecycleKind) String() string {
	switch k {
	case LifecycleStarted:
		return "started"
	case LifecycleRestarted:
		return "restarted"
	case LifecycleStopped:
		return "stopped"
	case LifecycleEscalated:
		return "escalated"
	default:
		return fmt.Sprintf("LifecycleKind(%d)", int(k))
	}
}

// LifecycleEvent is one supervision event, delivered to the owning
// supervisor's OnEvent hook and the system-wide Config.OnLifecycle hook.
type LifecycleEvent struct {
	Kind       LifecycleKind
	Ref        *Ref   // the actor concerned
	Supervisor string // owning supervisor's name ("" for unsupervised actors)
	Reason     any    // panic value for failure-driven events, else nil
	Restarts   int    // the actor's lifetime restart count after this event
}

// SupervisorSpec configures a supervisor.
type SupervisorSpec struct {
	// Strategy is the restart strategy (default OneForOne).
	Strategy Strategy
	// MaxRestarts is the per-child failure budget: after this many
	// failure-driven restarts the next failure escalates instead of
	// restarting. 0 means "never restart" (every failure escalates).
	// Forced all-for-one sibling restarts do not consume the budget.
	MaxRestarts int
	// Backoff is the delay before the first failure-driven restart; it
	// doubles on each subsequent restart of the same child (exponential
	// backoff), bounding restart storms. Zero means restart immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s when Backoff > 0).
	MaxBackoff time.Duration
	// OnEvent, when non-nil, observes this supervisor's lifecycle events.
	OnEvent func(ev LifecycleEvent)
}

// ErrDuplicateChild is returned by Supervisor.Spawn when a child with the
// same name already exists under the supervisor.
var ErrDuplicateChild = errors.New("actors: duplicate child name under supervisor")

// Supervisor owns a group of actors (and optionally nested supervisors) and
// restarts them per its strategy when their behaviors panic. A supervised
// restart keeps the actor's Ref and mailbox: the behavior is rebuilt from
// its factory, the poisoned message is lost, and queued messages are handled
// by the fresh behavior — the lost-message/retry consequences are the
// application protocol's concern (see AskRetry).
type Supervisor struct {
	sys    *System
	name   string
	parent *Supervisor
	spec   SupervisorSpec

	mu       sync.Mutex
	children map[string]*childEntry
	failures int // failure-driven restarts of this supervisor as a child
}

// childEntry tracks one supervised child across restarts and respawns.
type childEntry struct {
	name     string
	ref      *Ref            // current incarnation (actors only)
	factory  func() Behavior // actors only
	subtree  *Supervisor     // nested supervisor children
	restarts int             // failure-driven restarts consumed
	alive    bool
}

// Supervise creates a root supervisor on the system.
func (s *System) Supervise(name string, spec SupervisorSpec) *Supervisor {
	if spec.Backoff > 0 && spec.MaxBackoff <= 0 {
		spec.MaxBackoff = time.Second
	}
	return &Supervisor{sys: s, name: name, spec: spec, children: make(map[string]*childEntry)}
}

// Subtree creates a nested supervisor under sup. Failures that exhaust the
// subtree's budget escalate to sup, which applies its own strategy to the
// subtree as a whole (restarting all of the subtree's children).
func (sup *Supervisor) Subtree(name string, spec SupervisorSpec) (*Supervisor, error) {
	child := sup.sys.Supervise(name, spec)
	child.parent = sup
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if _, dup := sup.children[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateChild, name)
	}
	sup.children[name] = &childEntry{name: name, subtree: child, alive: true}
	return child, nil
}

// Name returns the supervisor's name.
func (sup *Supervisor) Name() string { return sup.name }

// Spawn creates a supervised actor. factory builds the actor's initial
// behavior and is called again on every restart, so behaviors that close
// over fresh state start clean; close over external state to make it
// survive restarts.
func (sup *Supervisor) Spawn(name string, factory func() Behavior) (*Ref, error) {
	if factory == nil {
		return nil, errors.New("actors: nil behavior factory")
	}
	sup.mu.Lock()
	if _, dup := sup.children[name]; dup {
		sup.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateChild, name)
	}
	entry := &childEntry{name: name, factory: factory}
	sup.children[name] = entry
	sup.mu.Unlock()

	ref, err := sup.sys.spawn(name, factory(), sup, factory)
	if err != nil {
		sup.mu.Lock()
		delete(sup.children, name)
		sup.mu.Unlock()
		return nil, err
	}
	sup.mu.Lock()
	entry.ref = ref
	entry.alive = true
	sup.mu.Unlock()
	sup.sys.emitLifecycle(sup, LifecycleEvent{Kind: LifecycleStarted, Ref: ref})
	return ref, nil
}

// MustSpawn is Spawn that panics on error, for examples and tests.
func (sup *Supervisor) MustSpawn(name string, factory func() Behavior) *Ref {
	ref, err := sup.Spawn(name, factory)
	if err != nil {
		panic(err)
	}
	return ref
}

// Child returns the current Ref of the named child actor (which changes if
// the child is respawned after an escalation-driven group restart).
func (sup *Supervisor) Child(name string) (*Ref, bool) {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	e, ok := sup.children[name]
	if !ok || e.ref == nil {
		return nil, false
	}
	return e.ref, e.alive
}

// StopAll stops every child actor and recursively every subtree.
func (sup *Supervisor) StopAll() {
	sup.mu.Lock()
	var refs []*Ref
	var subs []*Supervisor
	for _, e := range sup.children {
		if e.subtree != nil {
			subs = append(subs, e.subtree)
		} else if e.alive && e.ref != nil {
			refs = append(refs, e.ref)
		}
	}
	sup.mu.Unlock()
	for _, r := range refs {
		sup.sys.Stop(r)
	}
	for _, sub := range subs {
		sub.StopAll()
	}
}

// backoffFor computes the exponential, capped restart delay for the n-th
// failure-driven restart (1-based).
func (spec *SupervisorSpec) backoffFor(n int) time.Duration {
	if spec.Backoff <= 0 {
		return 0
	}
	d := spec.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= spec.MaxBackoff {
			return spec.MaxBackoff
		}
	}
	if d > spec.MaxBackoff {
		return spec.MaxBackoff
	}
	return d
}

// onChildFailure decides what to do about a panicking child. It is invoked
// on the worker running the failing child. After the backoff delay the
// child runs escalation (if non-nil), then restarts in place if restart is
// set and stops otherwise (System.superviseFailure).
func (sup *Supervisor) onChildFailure(ref *Ref, reason any) (restart bool, delay time.Duration, escalation func()) {
	sup.mu.Lock()
	entry := sup.entryForLocked(ref)
	if entry == nil {
		// Unknown incarnation (already superseded): let it die quietly.
		sup.mu.Unlock()
		return false, 0, nil
	}
	if entry.restarts >= sup.spec.MaxRestarts {
		entry.alive = false
		sup.mu.Unlock()
		delay, escalation = sup.escalate(ref, reason)
		return false, delay, escalation
	}
	entry.restarts++
	delay = sup.spec.backoffFor(entry.restarts)
	var siblings []*childEntry
	if sup.spec.Strategy == AllForOne {
		for _, e := range sup.children {
			if e != entry {
				siblings = append(siblings, e)
			}
		}
	}
	sup.mu.Unlock()
	for _, e := range siblings {
		sup.forceRestart(e, reason)
	}
	return true, delay, nil
}

// entryForLocked finds the child entry whose current incarnation is ref.
// Caller holds sup.mu.
func (sup *Supervisor) entryForLocked(ref *Ref) *childEntry {
	for _, e := range sup.children {
		if e.ref != nil && e.ref.id == ref.id {
			return e
		}
	}
	return nil
}

// forceRestart resets one child (or a whole subtree) from outside, as part
// of all-for-one or escalation handling. Live actors get a restart control
// message; dead ones are respawned from their factory with a fresh Ref.
func (sup *Supervisor) forceRestart(e *childEntry, reason any) {
	sup.mu.Lock()
	subtree := e.subtree
	alive := e.alive
	ref := e.ref
	sup.mu.Unlock()
	if subtree != nil {
		subtree.restartGroup(reason)
		return
	}
	if alive && ref != nil {
		sup.sys.send(ref, Envelope{Msg: restartMsg{reason: reason}})
		return
	}
	sup.respawn(e)
}

// respawn builds a fresh incarnation of a dead child.
func (sup *Supervisor) respawn(e *childEntry) {
	sup.mu.Lock()
	if e.alive || e.factory == nil {
		sup.mu.Unlock()
		return
	}
	factory := e.factory
	name := e.name
	e.restarts = 0
	sup.mu.Unlock()
	ref, err := sup.sys.spawn(name, factory(), sup, factory)
	if err != nil {
		return // system shutting down
	}
	sup.mu.Lock()
	e.ref = ref
	e.alive = true
	sup.mu.Unlock()
	sup.sys.emitLifecycle(sup, LifecycleEvent{Kind: LifecycleStarted, Ref: ref})
}

// restartGroup force-restarts every child of this supervisor (used when a
// parent's strategy restarts this supervisor as a unit). Restart budgets
// reset: the group gets a clean slate.
func (sup *Supervisor) restartGroup(reason any) {
	sup.mu.Lock()
	entries := make([]*childEntry, 0, len(sup.children))
	for _, e := range sup.children {
		e.restarts = 0
		entries = append(entries, e)
	}
	sup.mu.Unlock()
	for _, e := range entries {
		sup.forceRestart(e, reason)
	}
}

// escalate hands an exhausted child failure to the parent supervisor. The
// parent applies its own strategy, treating this supervisor as the failing
// child: within budget it restarts the whole group (respawning the dead
// child) — returned as groupRestart, to run after the parent's backoff
// delay; out of budget it escalates further. A root supervisor only emits
// the event — the child stays stopped.
func (sup *Supervisor) escalate(ref *Ref, reason any) (delay time.Duration, groupRestart func()) {
	sup.sys.emitLifecycle(sup, LifecycleEvent{Kind: LifecycleEscalated, Ref: ref, Reason: reason})
	parent := sup.parent
	if parent == nil {
		return 0, nil
	}
	parent.mu.Lock()
	entry := parent.children[sup.name]
	if entry == nil {
		parent.mu.Unlock()
		return 0, nil
	}
	if entry.restarts >= parent.spec.MaxRestarts {
		parent.mu.Unlock()
		return parent.escalate(ref, reason)
	}
	entry.restarts++
	delay = parent.spec.backoffFor(entry.restarts)
	parent.mu.Unlock()
	return delay, func() {
		switch parent.spec.Strategy {
		case AllForOne:
			parent.restartGroup(reason)
		default:
			sup.restartGroup(reason)
		}
	}
}

// childExited marks the child's current incarnation dead (called from the
// cell's teardown). A respawned entry with a newer Ref is left untouched.
func (sup *Supervisor) childExited(ref *Ref) {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if e := sup.entryForLocked(ref); e != nil {
		e.alive = false
	}
}
