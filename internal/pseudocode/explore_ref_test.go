package pseudocode

import (
	"errors"
	"slices"
)

// referenceExplore is the independent search Explore is checked against: a
// plain depth-first search keyed by each state's full canonical encoding,
// with a fresh Clone+Step for every child — no fingerprints, clone elision,
// recycling or partial-order reduction. It honours opts.Sem, MaxStates,
// MaxDepth and Predicates.
//
// With memo false it walks the execution tree instead of the state graph:
// a state reached along k paths is visited k times (terminals still dedup
// by encoding). That is the no-memoization ablation; only acyclic programs
// finish it.
func referenceExplore(prog *Compiled, opts ExploreOpts, memo bool) (*ExploreResult, error) {
	maxStates, maxDepth := exploreBounds(opts)
	res := &ExploreResult{PredicateHits: make([]bool, len(opts.Predicates))}
	visit := func(w *World) {
		res.StatesVisited++
		for i, p := range opts.Predicates {
			if p(w) {
				res.PredicateHits[i] = true
			}
		}
	}
	visited := map[string]bool{}
	var enc []byte
	terminals := map[string]bool{}
	type node struct {
		w     *World
		depth int
	}
	start := NewWorld(prog, opts.Sem)
	visited[start.Encode()] = true
	visit(start)
	stack := []node{{start, 0}}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		choices := n.w.Runnable()
		if len(choices) == 0 {
			if enc := n.w.Encode(); !terminals[enc] {
				terminals[enc] = true
				term := Terminal{Kind: n.w.Classify(), Output: n.w.Output()}
				if term.Kind == Deadlocked {
					term.Blocked = n.w.BlockedTasks()
					res.Deadlocks++
					res.DeadlockOutputs = append(res.DeadlockOutputs, term.Output)
				} else {
					res.Outputs = append(res.Outputs, term.Output)
				}
				res.Terminals = append(res.Terminals, term)
			}
			continue
		}
		if n.depth >= maxDepth {
			res.Truncated = true
			continue
		}
		for _, ch := range choices {
			if res.StatesVisited >= maxStates {
				res.Truncated = true
				break
			}
			child := n.w.Clone()
			if err := child.Step(ch); err != nil {
				return res, errors.Join(ErrExploreError, err)
			}
			res.Transitions++
			if memo {
				enc = child.appendEncode(enc[:0])
				if visited[string(enc)] {
					continue
				}
				visited[string(enc)] = true
			}
			visit(child)
			stack = append(stack, node{child, n.depth + 1})
		}
	}
	slices.SortFunc(res.Terminals, compareTerminals)
	slices.Sort(res.Outputs)
	res.Outputs = slices.Compact(res.Outputs)
	slices.Sort(res.DeadlockOutputs)
	res.DeadlockOutputs = slices.Compact(res.DeadlockOutputs)
	return res, nil
}
