package pseudocode

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The search: Workers goroutines share one LIFO work queue of frontier
// worlds and a fingerprint set sharded across locks. Each worker keeps
// private result accumulators; the merge at the end is deterministic
// (Terminals sorted canonically, output sets unioned and sorted,
// StatesVisited counted by atomic set insertion). The visited *set* is
// run-order independent, so everything derived from it is reproducible even
// though the schedule of workers is not. One worker is the sequential
// search: it runs on the calling goroutine over a single shard, so a tiny
// program pays for one set of maps, not 64.

const exploreShardCount = 64 // a power of two

// shardCount stripes the visited set over exploreShardCount locks for
// several workers; a lone worker takes one shard.
func shardCount(workers int) int {
	if workers > 1 {
		return exploreShardCount
	}
	return 1
}

type exploreShard struct {
	mu      searchMutex
	seen    map[fingerprint]struct{}
	sleep   map[fingerprint][]Choice   // POR only
	term    map[fingerprint]bool       // POR only: terminal dedup
	parents map[fingerprint]parentLink // TrackWitness only: first arrival
}

// searchMutex guards state the workers share. A lone worker shares
// nothing, so it skips the lock: the uncontended lock pairs, one per
// transition and two per state, cost about a tenth of a small exploration.
type searchMutex struct {
	sync.Mutex
	shared bool // Workers > 1
}

func (m *searchMutex) Lock() {
	if m.shared {
		m.Mutex.Lock()
	}
}

func (m *searchMutex) Unlock() {
	if m.shared {
		m.Mutex.Unlock()
	}
}

// shard picks one of n shards, n a power of two.
func (fp fingerprint) shard(n int) int { return int(fp.lo & uint64(n-1)) }

// workQueue is the shared frontier. outstanding counts nodes pushed but not
// yet fully expanded; the search is complete when the queue is empty and
// outstanding is zero (every worker then drains out).
type workQueue struct {
	mu          searchMutex
	cond        sync.Cond // L is &mu
	stack       []exNode
	outstanding int
	err         error
}

func (q *workQueue) push(n exNode) {
	q.mu.Lock()
	q.stack = append(q.stack, n)
	q.outstanding++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop first marks the caller's previous node expanded (when it had one),
// then blocks until work is available, the search completes, or a worker
// failed. ok=false means "stop".
func (q *workQueue) pop(expanded bool) (exNode, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if expanded {
		q.outstanding--
		if q.outstanding == 0 {
			q.cond.Broadcast()
		}
	}
	for len(q.stack) == 0 && q.outstanding > 0 && q.err == nil {
		q.cond.Wait()
	}
	if q.err != nil || len(q.stack) == 0 {
		return exNode{}, false
	}
	n := q.stack[len(q.stack)-1]
	q.stack = q.stack[:len(q.stack)-1]
	return n, true
}

func (q *workQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// workerAcc collects per-worker partial results, merged after the join.
type workerAcc struct {
	terminals     []Terminal
	transitions   int
	predicateHits []bool
	truncated     bool
	deadlock      *fingerprint     // TrackWitness: first deadlock this worker found
	terminalFPs   []fingerprint    // TrackGraph
	edges         [][2]fingerprint // TrackGraph: (from, to) per transition
}

// Explore enumerates every reachable state of prog under the semantics at
// atomic-statement granularity, merging states that are identical under
// canonical encoding. It returns the distinct terminal configurations and
// the set of possible outputs — the "space of executions".
func Explore(prog *Compiled, opts ExploreOpts) (*ExploreResult, error) {
	maxStates, maxDepth := exploreBounds(opts)
	por := opts.POR && !opts.TrackGraph
	canRecycle := len(opts.Predicates) == 0
	workers := max(opts.Workers, 1)

	shards := make([]exploreShard, shardCount(workers))
	for i := range shards {
		shards[i].mu.shared = workers > 1
		shards[i].seen = map[fingerprint]struct{}{}
		if por {
			shards[i].sleep = map[fingerprint][]Choice{}
			shards[i].term = map[fingerprint]bool{}
		}
		if opts.TrackWitness {
			shards[i].parents = map[fingerprint]parentLink{}
		}
	}
	var statesVisited atomic.Int64
	q := &workQueue{}
	q.mu.shared = workers > 1
	q.cond.L = &q.mu

	res := &ExploreResult{}
	res.PredicateHits = make([]bool, len(opts.Predicates))

	start := NewWorld(prog, opts.Sem)
	startEnc := start.appendEncode(nil)
	startFP := fingerprintOf(startEnc)
	s0 := &shards[startFP.shard(len(shards))]
	s0.seen[startFP] = struct{}{}
	if por {
		s0.sleep[startFP] = nil
	}
	statesVisited.Add(1)
	for i, p := range opts.Predicates {
		if p(start) {
			res.PredicateHits[i] = true
		}
	}
	q.push(exNode{w: start, depth: 0, fp: startFP})

	accs := make([]workerAcc, workers)
	var wg sync.WaitGroup
	for wi := range accs {
		acc := &accs[wi]
		acc.predicateHits = make([]bool, len(opts.Predicates))
		wg.Add(1)
		work := func(encBuf []byte) {
			defer wg.Done()
			lane := &alloc{} // private free list; popped worlds re-tag to it
			var choiceBuf, live []Choice
			var liveFPs []*stepFP
			observe := func(w *World) {
				for i, p := range opts.Predicates {
					if !acc.predicateHits[i] && p(w) {
						acc.predicateHits[i] = true
					}
				}
			}
			for popped := false; ; popped = true {
				n, ok := q.pop(popped)
				if !ok {
					return
				}
				// The popping worker exclusively owns this world now; its
				// clones and recycled containers go through this lane.
				n.w.alloc = lane
				choiceBuf = n.w.runnableInto(choiceBuf)
				choices := choiceBuf
				if len(choices) == 0 {
					kind := n.w.classifyBlocked()
					first := true
					if por { // POR pops a state again to re-expand it
						ts := &shards[n.fp.shard(len(shards))]
						ts.mu.Lock()
						first = !ts.term[n.fp]
						ts.term[n.fp] = true
						ts.mu.Unlock()
					}
					if first {
						term := Terminal{Kind: kind, Output: n.w.Output()}
						if kind == Deadlocked {
							term.Blocked = n.w.BlockedTasks()
							if opts.TrackWitness && acc.deadlock == nil {
								fp := n.fp // n itself stays on the stack
								acc.deadlock = &fp
							}
						}
						acc.terminals = append(acc.terminals, term)
						if opts.TrackGraph {
							acc.terminalFPs = append(acc.terminalFPs, n.fp)
						}
					}
					if canRecycle {
						n.w.recycle()
					}
					continue
				}
				if n.depth >= maxDepth {
					acc.truncated = true
					if canRecycle {
						n.w.recycle()
					}
					continue
				}
				live = live[:0]
				if por && len(n.sleep) > 0 {
					for _, ch := range choices {
						slept := false
						for i := range n.sleep {
							if n.sleep[i].ch == ch {
								slept = true
								break
							}
						}
						if !slept {
							live = append(live, ch)
						}
					}
				} else {
					live = append(live, choices...)
				}
				if por {
					liveFPs = liveFPs[:0]
					for _, ch := range live {
						liveFPs = append(liveFPs, n.w.stepFootprint(ch))
					}
				}
				reused := false
				for i, ch := range live {
					if statesVisited.Load() >= int64(maxStates) {
						acc.truncated = true
						break
					}
					var child *World
					if i == len(live)-1 {
						child = n.w
						reused = true
					} else {
						child = n.w.Clone()
					}
					if err := child.Step(ch); err != nil {
						q.fail(err)
						break
					}
					acc.transitions++
					var childSleep []sleepEntry
					if por {
						chFP := liveFPs[i]
						for j := range n.sleep {
							e := &n.sleep[j]
							if e.ch.TaskIdx != ch.TaskIdx && independentSteps(e.fp, chFP) {
								childSleep = append(childSleep, *e)
							}
						}
						for j := 0; j < i; j++ {
							if live[j].TaskIdx != ch.TaskIdx && independentSteps(liveFPs[j], chFP) {
								childSleep = append(childSleep, sleepEntry{ch: live[j], fp: liveFPs[j]})
							}
						}
					}
					encBuf = child.appendEncode(encBuf[:0])
					cfp := fingerprintOf(encBuf)
					if opts.TrackGraph {
						acc.edges = append(acc.edges, [2]fingerprint{n.fp, cfp})
					}
					s := &shards[cfp.shard(len(shards))]
					s.mu.Lock()
					_, dup := s.seen[cfp]
					if !dup {
						s.seen[cfp] = struct{}{}
						if s.parents != nil {
							s.parents[cfp] = parentLink{parent: n.fp, ch: ch}
						}
						if por {
							s.sleep[cfp] = sleepChoices(childSleep)
						}
						s.mu.Unlock()
						statesVisited.Add(1)
						observe(child)
						q.push(exNode{w: child, depth: n.depth + 1, fp: cfp, sleep: childSleep})
						continue
					}
					if por {
						stored := s.sleep[cfp]
						if !sleepCovered(stored, childSleep) {
							inter := sleepIntersect(stored, childSleep)
							s.sleep[cfp] = sleepChoices(inter)
							s.mu.Unlock()
							q.push(exNode{w: child, depth: n.depth + 1, fp: cfp, sleep: inter})
							continue
						}
					}
					s.mu.Unlock()
					if child == n.w {
						reused = false
					} else if canRecycle {
						child.recycle()
					}
				}
				if !reused && canRecycle {
					n.w.recycle()
				}
			}
		}
		if wi == len(accs)-1 {
			work(startEnc) // the last worker is the calling goroutine
		} else {
			go work(nil)
		}
	}
	wg.Wait()

	for i := range accs {
		acc := &accs[i]
		res.Terminals = append(res.Terminals, acc.terminals...)
		res.Transitions += acc.transitions
		if acc.deadlock != nil && res.DeadlockWitness == nil {
			res.DeadlockWitness = rebuildWitness(shards, *acc.deadlock)
		}
		for i, h := range acc.predicateHits {
			if h {
				res.PredicateHits[i] = true
			}
		}
		if acc.truncated {
			res.Truncated = true
		}
	}
	// Deterministic order regardless of which worker claimed which terminal.
	slices.SortFunc(res.Terminals, compareTerminals)
	for _, term := range res.Terminals {
		if term.Kind == Deadlocked {
			res.Deadlocks++
			res.DeadlockOutputs = append(res.DeadlockOutputs, term.Output)
		} else {
			res.Outputs = append(res.Outputs, term.Output)
		}
	}
	slices.Sort(res.Outputs)
	res.Outputs = slices.Compact(res.Outputs)
	slices.Sort(res.DeadlockOutputs)
	res.DeadlockOutputs = slices.Compact(res.DeadlockOutputs)
	res.StatesVisited = int(statesVisited.Load())
	if q.err != nil {
		return res, errors.Join(ErrExploreError, q.err)
	}
	if opts.TrackGraph && !res.Truncated {
		res.DivergentStates = res.StatesVisited - reachTerminals(accs)
		res.LivelockFree = res.DivergentStates == 0
	}
	return res, nil
}

// compareTerminals orders terminals by kind, then output, then blocked tasks.
func compareTerminals(a, b Terminal) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Output != b.Output {
		return strings.Compare(a.Output, b.Output)
	}
	return strings.Compare(strings.Join(a.Blocked, "|"), strings.Join(b.Blocked, "|"))
}

// reachTerminals counts the states from which some terminal is reachable,
// by a reverse search from the terminals over the recorded edges.
func reachTerminals(accs []workerAcc) int {
	rev := map[fingerprint][]fingerprint{}
	var stack []fingerprint
	for _, acc := range accs {
		for _, e := range acc.edges {
			rev[e[1]] = append(rev[e[1]], e[0])
		}
		stack = append(stack, acc.terminalFPs...)
	}
	reach := make(map[fingerprint]bool, len(rev))
	for _, fp := range stack {
		reach[fp] = true
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, prev := range rev[cur] {
			if !reach[prev] {
				reach[prev] = true
				stack = append(stack, prev)
			}
		}
	}
	return len(reach)
}
