package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/pseudocode"
)

// exploreCase is one program × semantics of the explorer corpus.
type exploreCase struct {
	program, semName string
	sem              pseudocode.Semantics
}

// exploreCases are the workload's cases: cmd/benchtables' -explore corpus
// without bridge_message, whose two searches of about 90k states each hold
// a heap far past the CPU caches and so read up to 20% slower or faster with
// the memory traffic of whatever else shares the host.
var exploreCases = []exploreCase{
	{"bridge_shared", "true", pseudocode.Semantics{}},
	{"bridge_shared", "coarse-lock", pseudocode.Semantics{CoarseLock: true}},
	{"bridge_shared", "wait-keeps-lock", pseudocode.Semantics{WaitKeepsLock: true}},
	{"philosophers_symmetric", "true", pseudocode.Semantics{}},
	{"philosophers_asymmetric", "true", pseudocode.Semantics{}},
	{"fig3c_interleave", "true", pseudocode.Semantics{}},
	{"fig5_messages", "true", pseudocode.Semantics{}},
	{"fig5_messages", "fifo", pseudocode.Semantics{FIFOMailboxes: true}},
	{"quiz_boundedbuffer", "true", pseudocode.Semantics{}},
}

// bigExploreCases are explored by the traced run's probes only. Under
// synchronous send bridge_message is left out altogether: there the reduced
// search visits fewer distinct states than the unreduced one (91303 against
// 94697).
var bigExploreCases = []exploreCase{
	{"bridge_message", "true", pseudocode.Semantics{}},
	{"bridge_message", "fifo", pseudocode.Semantics{FIFOMailboxes: true}},
}

// corpusCases is every case the benchmark explores.
func corpusCases() []exploreCase {
	return append(slices.Clip(exploreCases), bigExploreCases...)
}

func (c exploreCase) span() string { return "pseudocode." + c.program + "." + c.semName }

// exploreOpts are the study's production options: partial-order reduction
// and min(GOMAXPROCS, 8) workers.
func exploreOpts(sem pseudocode.Semantics) pseudocode.ExploreOpts {
	return pseudocode.ExploreOpts{Sem: sem, POR: true, Workers: min(runtime.GOMAXPROCS(0), 8)}
}

// exploreRef is what an unreduced sequential exploration finds.
type exploreRef struct {
	states, deadlocks int
	outputs           []string
}

// compileCorpus compiles every program the cases use.
func compileCorpus() (map[string]*pseudocode.Compiled, error) {
	src := pseudocode.CorpusPrograms()
	progs := map[string]*pseudocode.Compiled{}
	for _, c := range corpusCases() {
		if progs[c.program] != nil {
			continue
		}
		p, err := pseudocode.CompileSource(src[c.program])
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", c.program, err)
		}
		progs[c.program] = p
	}
	return progs, nil
}

// exploreWorld explores the corpus; one op is one distinct state visited,
// and each Explore call is checked against the unreduced reference.
type exploreWorld struct {
	progs map[string]*pseudocode.Compiled
	refs  []exploreRef
	rng   *rand.Rand
	order []int // this pass's case order, drawn from the seed
	pos   int
}

func newExploreWorld(seed int64) (*exploreWorld, error) {
	progs, err := compileCorpus()
	if err != nil {
		return nil, err
	}
	return &exploreWorld{progs: progs, rng: rand.New(rand.NewSource(seed))}, nil
}

func (w *exploreWorld) callers() int  { return 1 }
func (w *exploreWorld) verify() int64 { return 0 }
func (w *exploreWorld) midPass() bool { return w.pos != 0 }
func (w *exploreWorld) parts() parts  { return parts{} }
func (w *exploreWorld) close()        {}

// prepare computes the reference results with an unreduced sequential
// search.
func (w *exploreWorld) prepare() error {
	w.refs = make([]exploreRef, len(exploreCases))
	for i, c := range exploreCases {
		res, err := pseudocode.Explore(w.progs[c.program], pseudocode.ExploreOpts{Sem: c.sem})
		if err == nil && res.Truncated {
			err = fmt.Errorf("truncated")
		}
		if err != nil {
			return fmt.Errorf("reference %s: %w", c.span(), err)
		}
		w.refs[i] = exploreRef{res.StatesVisited, res.Deadlocks, res.Outputs}
	}
	return nil
}

func (w *exploreWorld) op(c *caller) {
	if w.pos == 0 {
		w.order = w.rng.Perm(len(exploreCases))
	}
	i := w.order[w.pos]
	w.pos = (w.pos + 1) % len(exploreCases)
	ec, ref := exploreCases[i], w.refs[i]
	start := now()
	res, err := pseudocode.Explore(w.progs[ec.program], exploreOpts(ec.sem))
	end := now()
	c.lat.add("", end-start)
	if err != nil {
		c.ops += int64(ref.states)
		c.failed += int64(ref.states)
		return
	}
	c.span(ec.span(), start, end, int64(res.StatesVisited), int64(res.Transitions))
	c.ops += int64(res.StatesVisited)
	if res.Truncated || res.StatesVisited != ref.states || res.Deadlocks != ref.deadlocks || !slices.Equal(res.Outputs, ref.outputs) {
		c.failed += int64(res.StatesVisited)
	}
}
