package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	_ "repro/internal/problems/registry"
)

// courseParams are the problem sizes of cmd/benchtables' cross-model table
// under -quick (a quarter of the full sizes), so a run holds enough problem
// runs for a tail percentile.
var courseParams = map[string]core.Params{
	"boundedbuffer":      {"producers": 4, "consumers": 4, "items": 500, "capacity": 16},
	"diningphilosophers": {"philosophers": 5, "meals": 100},
	"readerswriters":     {"readers": 6, "writers": 2, "ops": 250},
	"sleepingbarber":     {"barbers": 2, "chairs": 4, "customers": 500},
	"partymatching":      {"pairs": 250},
	"singlelanebridge":   {"red": 3, "blue": 3, "crossings": 50},
	"bookinventory":      {"titles": 10, "clients": 6, "ops": 250, "initial": 20},
	"sumworkers":         {"workers": 8, "n": 100000},
	"threadpool":         {"workers": 4, "tasks": 1000, "queue": 16},
}

// comparableKeys are the metrics fully determined by the parameters, which
// every model must report identically (the set the cross-model conformance
// test in internal/problems checks). sleepingbarber's served+turnedAway sum
// is checked separately.
var comparableKeys = map[string][]string{
	"boundedbuffer":      {"consumed"},
	"diningphilosophers": {"meals", "philosophers"},
	"readerswriters":     {"readOps", "writeOps"},
	"partymatching":      {"pairs"},
	"singlelanebridge":   {"crossings"},
	"sumworkers":         {"sum", "workers"},
	"threadpool":         {"tasks"},
}

// problemRun is one (problem, model) cell of the course matrix.
type problemRun struct {
	spec  *core.Spec
	model core.Model
	span  string // "problems.<problem>.<model>"
}

// courseRuns lists the nine problems × three models in presentation order.
func courseRuns() ([]problemRun, error) {
	var runs []problemRun
	for _, name := range sortedKeys(courseParams) {
		spec, err := core.Default.Get(name)
		if err != nil {
			return nil, err
		}
		for _, m := range core.AllModels {
			if spec.Runs[m] == nil {
				return nil, fmt.Errorf("%s has no %s implementation", name, m)
			}
			runs = append(runs, problemRun{spec, m, "problems." + name + "." + m.String()})
		}
	}
	return runs, nil
}

// modelsAgree checks one problem's three runs against each other: the
// comparable metrics must be equal across models.
func modelsAgree(problem string, got []core.Metrics) bool {
	keys := comparableKeys[problem]
	if problem == "sleepingbarber" {
		for _, m := range got {
			if m["served"]+m["turnedAway"] != got[0]["served"]+got[0]["turnedAway"] {
				return false
			}
		}
	}
	for _, k := range keys {
		for _, m := range got {
			v, ok := m[k]
			if !ok || v != got[0][k] {
				return false
			}
		}
	}
	return true
}

// courseWorld runs the classical problems under the three models through
// core.Default. One op is one problem run; consecutive ops walk the matrix,
// and each pass over it draws a fresh seed.
type courseWorld struct {
	runs     []problemRun
	rng      *rand.Rand
	pos      int
	passSeed int64
	triple   []core.Metrics // this problem's runs so far in the pass
	tripleOK bool
}

func newCourseWorld(seed int64) (*courseWorld, error) {
	runs, err := courseRuns()
	if err != nil {
		return nil, err
	}
	w := &courseWorld{runs: runs, rng: rand.New(rand.NewSource(seed))}
	// A warm-up pass fills the allocator and scheduler caches, as a user's
	// first pass would.
	c := newCaller(0, seed, nil)
	for range runs {
		w.op(c)
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %d of %d runs failed", c.failed, len(runs))
	}
	return w, nil
}

func (w *courseWorld) callers() int   { return 1 }
func (w *courseWorld) prepare() error { return nil }
func (w *courseWorld) verify() int64  { return 0 }
func (w *courseWorld) midPass() bool  { return w.pos != 0 }
func (w *courseWorld) parts() parts   { return parts{} }
func (w *courseWorld) close()         {}

// op runs the next cell of the matrix and, when a problem's three models
// have run, checks that they agree.
func (w *courseWorld) op(c *caller) {
	if w.pos == 0 {
		w.passSeed = w.rng.Int63()
	}
	r := w.runs[w.pos]
	w.pos = (w.pos + 1) % len(w.runs)
	if r.model == core.AllModels[0] {
		w.triple, w.tripleOK = w.triple[:0], true
	}
	start := now()
	m, err := r.spec.Run(r.model, courseParams[r.spec.Name], w.passSeed)
	end := now()
	c.span(r.span, start, end, 1, 0)
	c.lat.add(r.span, end-start)
	c.ops++
	if err != nil {
		c.failed++
		w.tripleOK = false
	}
	w.triple = append(w.triple, m)
	if len(w.triple) == len(core.AllModels) && w.tripleOK && !modelsAgree(r.spec.Name, w.triple) {
		c.failed += int64(len(w.triple))
	}
}
