package pseudocode

import (
	"errors"
	"fmt"
	"slices"
)

// ExploreOpts configures exhaustive state-space exploration.
type ExploreOpts struct {
	Sem Semantics
	// MaxStates bounds the number of distinct states visited
	// (0 = DefaultMaxStates). When exceeded, the result is marked Truncated.
	MaxStates int
	// MaxDepth bounds the number of steps along any one execution
	// (0 = DefaultMaxDepth).
	MaxDepth int
	// Predicates, when non-empty, are all evaluated at every visited state;
	// PredicateHits[i] records whether Predicates[i] matched anywhere. This
	// lets one exploration answer a whole question bank. With Workers > 1
	// they must be safe to call concurrently; they must not retain the
	// *World.
	Predicates []func(w *World) bool
	// TrackGraph records the state graph so the result can answer liveness
	// questions: DivergentStates counts states from which no terminal is
	// reachable (livelock — e.g. an unconditional message-deferral loop).
	// Costs memory proportional to the edge count. Disables POR.
	TrackGraph bool
	// TrackWitness records parent links so the result carries a concrete
	// schedule (sequence of Choices) reaching the first deadlock found —
	// a counterexample you can replay with ReplayWitness. Which deadlock,
	// and which schedule to it, depends on the workers' interleaving when
	// Workers > 1.
	TrackWitness bool
	// POR enables sleep-set partial-order reduction: provably commuting
	// interleavings are explored once instead of in every order. The
	// reduction prunes transitions, never states — Outputs, Deadlocks,
	// StatesVisited, and predicate hits are identical to an unreduced run;
	// only Transitions shrinks. Ignored under TrackGraph (the reduced
	// graph's edge set would be incomplete).
	POR bool
	// Workers is the number of goroutines that share the search (<= 1: the
	// calling goroutine alone). Terminals, outputs, deadlocks, StatesVisited
	// and predicate hits do not depend on it.
	Workers int
}

// Exploration bounds defaults.
const (
	DefaultMaxStates = 2_000_000
	DefaultMaxDepth  = 100_000
)

// ErrExploreError wraps a runtime error found on some execution path.
var ErrExploreError = errors.New("pseudocode: runtime error during exploration")

// Terminal is one distinct terminal configuration found by Explore.
type Terminal struct {
	Kind    TerminalKind
	Output  string
	Blocked []string // for deadlocks
}

// ExploreResult summarizes the full execution space.
type ExploreResult struct {
	// Terminals are the distinct terminal configurations (by state
	// encoding), sorted by kind, output and blocked tasks.
	Terminals []Terminal
	// Outputs is the sorted set of distinct outputs over non-deadlocked
	// terminals — Figure 3/5's "possibility 1 / possibility 2" sets.
	Outputs []string
	// DeadlockOutputs is the sorted set of outputs at deadlocked terminals.
	DeadlockOutputs []string
	// Deadlocks counts distinct deadlocked terminal states.
	Deadlocks int
	// StatesVisited counts distinct states explored.
	StatesVisited int
	// Transitions counts atomic steps executed during exploration. Without
	// POR this is the edge count of the explored graph; POR lowers it (the
	// savings metric reported by pcexplore -stats).
	Transitions int
	// PredicateHits mirrors opts.Predicates.
	PredicateHits []bool
	// DivergentStates counts states that cannot reach any terminal state
	// (only computed with opts.TrackGraph; livelocks make it non-zero).
	DivergentStates int
	// LivelockFree reports that every state can reach a terminal (only
	// meaningful with opts.TrackGraph and an untruncated exploration).
	LivelockFree bool
	// DeadlockWitness is a schedule from the initial state to the first
	// deadlock found (with opts.TrackWitness). Empty when no deadlock.
	DeadlockWitness []Choice
	// Truncated is true when a bound was hit; the result is then a lower
	// bound on the execution space.
	Truncated bool
}

// HasDeadlock reports whether any execution deadlocks.
func (r *ExploreResult) HasDeadlock() bool { return r.Deadlocks > 0 }

// OutputSet returns the distinct outputs as a set.
func (r *ExploreResult) OutputSet() map[string]bool {
	m := make(map[string]bool, len(r.Outputs))
	for _, o := range r.Outputs {
		m[o] = true
	}
	return m
}

func exploreBounds(opts ExploreOpts) (maxStates, maxDepth int) {
	maxStates = opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	maxDepth = opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	return maxStates, maxDepth
}

// sleepEntry is one transition the search can skip at a state: it commutes
// with every transition explored since it was added, so the interleaving it
// would start has already been covered in another order.
type sleepEntry struct {
	ch Choice
	fp *stepFP
}

// stepFootprint returns the static footprint of the atomic step choice ch
// would execute from the current state.
func (w *World) stepFootprint(ch Choice) *stepFP {
	f := w.Tasks[ch.TaskIdx].top()
	if f == nil {
		return universalStepFP
	}
	return f.code.stepFPs[f.ip]
}

// sleepCovered reports whether stored ⊆ sleep (by choice): a state already
// expanded with sleep set `stored` need not be re-expanded on an arrival
// with a larger sleep set.
func sleepCovered(stored []Choice, sleep []sleepEntry) bool {
	for _, s := range stored {
		found := false
		for i := range sleep {
			if sleep[i].ch == s {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sleepIntersect keeps the entries of sleep whose choice is in stored.
func sleepIntersect(stored []Choice, sleep []sleepEntry) []sleepEntry {
	var out []sleepEntry
	for i := range sleep {
		for _, s := range stored {
			if sleep[i].ch == s {
				out = append(out, sleep[i])
				break
			}
		}
	}
	return out
}

func sleepChoices(sleep []sleepEntry) []Choice {
	if len(sleep) == 0 {
		return nil
	}
	out := make([]Choice, len(sleep))
	for i := range sleep {
		out[i] = sleep[i].ch
	}
	return out
}

// exNode is one frontier entry of the search.
type exNode struct {
	w     *World
	depth int
	fp    fingerprint
	sleep []sleepEntry
}

// parentLink records how a state was first reached during exploration.
type parentLink struct {
	parent fingerprint
	ch     Choice
}

// rebuildWitness walks parent links from a terminal fingerprint back to the
// initial state and returns the schedule in execution order.
func rebuildWitness(shards []exploreShard, fp fingerprint) []Choice {
	out := []Choice{}
	for {
		link, ok := shards[fp.shard(len(shards))].parents[fp]
		if !ok {
			break
		}
		out = append(out, link.ch)
		fp = link.parent
	}
	slices.Reverse(out)
	return out
}

// ReplayWitness executes a schedule produced by TrackWitness on a fresh
// world, returning the trace of steps and the final world. It fails if the
// schedule doesn't replay (wrong program or semantics).
func ReplayWitness(prog *Compiled, sem Semantics, witness []Choice) ([]StepEvent, *World, error) {
	w := NewWorld(prog, sem)
	var events []StepEvent
	w.Trace = func(ev StepEvent) { events = append(events, ev) }
	for i, ch := range witness {
		ok := false
		for _, valid := range w.Runnable() {
			if valid == ch {
				ok = true
				break
			}
		}
		if !ok {
			return events, w, fmt.Errorf("pseudocode: witness step %d (%+v) is not runnable", i, ch)
		}
		if err := w.Step(ch); err != nil {
			return events, w, err
		}
	}
	return events, w, nil
}

// ExploreSource parses, compiles and explores src.
func ExploreSource(src string, opts ExploreOpts) (*ExploreResult, error) {
	prog, err := CompileSource(src)
	if err != nil {
		return nil, err
	}
	return Explore(prog, opts)
}

// Reachable reports whether pred holds in some reachable state of src under
// sem — the primitive the study's Test-1 questions are built on.
func Reachable(src string, sem Semantics, pred func(w *World) bool) (bool, error) {
	res, err := ExploreSource(src, ExploreOpts{Sem: sem, Predicates: []func(w *World) bool{pred}})
	if err != nil {
		return false, err
	}
	return res.PredicateHits[0], nil
}
