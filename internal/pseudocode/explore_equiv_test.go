package pseudocode

import (
	"os"
	"reflect"
	"testing"
	"time"
)

// Explore must be observationally identical to referenceExplore, the plain
// string-keyed search: same distinct states, same terminals, same outputs,
// same deadlocks, same predicate hits, and without POR the same transition
// count. This sweep runs every corpus program under every semantics variant
// in four configurations: one worker and four, each with and without POR.
// The reference keys its visited set on full encodings, so its exact
// StatesVisited also certifies Explore's 128-bit fingerprints: a collision
// between two reached states would lower Explore's count and fail the sweep.

// equivPredicates are state-dependent observables (never path metadata like
// step counts — those differ by arrival order even between equivalent
// explorations).
func equivPredicates() []func(w *World) bool {
	return []func(w *World) bool{
		func(w *World) bool { return w.MailboxCount() > 0 },
		func(w *World) bool {
			for _, tk := range w.Tasks {
				if tk.Waiting() {
					return true
				}
			}
			return false
		},
	}
}

func equivSummary(r *ExploreResult, por bool) map[string]any {
	m := map[string]any{
		"terminals":       r.Terminals,
		"outputs":         r.Outputs,
		"deadlockOutputs": r.DeadlockOutputs,
		"deadlocks":       r.Deadlocks,
		"states":          r.StatesVisited,
		"predicateHits":   r.PredicateHits,
		"truncated":       r.Truncated,
	}
	if !por {
		m["transitions"] = r.Transitions
	}
	return m
}

func TestExploreEquivalenceSweep(t *testing.T) {
	progs := CorpusPrograms()
	for _, name := range CorpusNames() {
		src := progs[name]
		for semName, sem := range allSemantics() {
			// bridge_message is ~100k states under bag delivery; sweep its
			// cheap variants and leave the expensive ones to the default
			// semantics so the full matrix stays fast enough for -race CI.
			if name == "bridge_message" && semName != "true" && semName != "fifo" {
				continue
			}
			if testing.Short() && name == "bridge_message" && semName == "true" {
				continue
			}
			t.Run(name+"/"+semName, func(t *testing.T) {
				prog, err := CompileSource(src)
				if err != nil {
					t.Fatal(err)
				}
				base := ExploreOpts{Sem: sem, Predicates: equivPredicates()}
				ref, refErr := referenceExplore(prog, base, true)
				if refErr == nil && ref.Truncated {
					t.Fatalf("reference exploration truncated; sweep comparison is meaningless")
				}
				configs := []struct {
					label string
					mod   func(*ExploreOpts)
				}{
					{"one worker", func(o *ExploreOpts) {}},
					{"por", func(o *ExploreOpts) { o.POR = true }},
					{"workers", func(o *ExploreOpts) { o.Workers = 4 }},
					{"por+workers", func(o *ExploreOpts) { o.POR = true; o.Workers = 4 }},
				}
				for _, cfg := range configs {
					opts := base
					opts.Predicates = equivPredicates()
					cfg.mod(&opts)
					got, err := Explore(prog, opts)
					if (err != nil) != (refErr != nil) {
						t.Fatalf("%s: error mismatch: ref=%v got=%v", cfg.label, refErr, err)
					}
					if refErr != nil {
						continue
					}
					want, have := equivSummary(ref, opts.POR), equivSummary(got, opts.POR)
					if !reflect.DeepEqual(want, have) {
						t.Errorf("%s: result diverged from reference\nref: %+v\ngot: %+v", cfg.label, want, have)
					}
				}
			})
		}
	}
}

// POR must also commute with single-shot reachability (the study's primitive).
func TestPORPreservesReachability(t *testing.T) {
	src := CorpusPrograms()["philosophers_symmetric"]
	pred := []func(w *World) bool{func(w *World) bool { return w.Classify() == Deadlocked }}
	ref, err := ExploreSource(src, ExploreOpts{Predicates: pred})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExploreSource(src, ExploreOpts{Predicates: pred, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.PredicateHits[0] != got.PredicateHits[0] {
		t.Fatalf("POR changed reachability: ref=%v got=%v", ref.PredicateHits[0], got.PredicateHits[0])
	}
}

// A deadlock witness recorded under POR must replay on a fresh world: the
// reduction prunes redundant interleavings but every recorded parent link
// is still a concrete executable schedule.
func TestWitnessReplayUnderPOR(t *testing.T) {
	progs := CorpusPrograms()
	for _, name := range []string{"philosophers_symmetric", "bridge_shared"} {
		prog, err := CompileSource(progs[name])
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(prog, ExploreOpts{TrackWitness: true, POR: true})
		if err != nil {
			t.Fatal(err)
		}
		if name == "philosophers_symmetric" {
			if res.Deadlocks == 0 || len(res.DeadlockWitness) == 0 {
				t.Fatalf("%s: expected a deadlock witness under POR, got %d deadlocks, witness len %d",
					name, res.Deadlocks, len(res.DeadlockWitness))
			}
			_, w, err := ReplayWitness(prog, Semantics{}, res.DeadlockWitness)
			if err != nil {
				t.Fatalf("%s: witness does not replay: %v", name, err)
			}
			if w.Classify() != Deadlocked {
				t.Fatalf("%s: replayed witness ends %v, want deadlocked", name, w.Classify())
			}
		} else if res.Deadlocks != 0 {
			t.Fatalf("%s: unexpected deadlocks under POR", name)
		}
	}
}

// TestExploreBenchSmoke is the CI regression gate for explorer throughput:
// the optimized explorer must stay well above the committed seed baseline.
// The floor is 3x (the committed speedup is >10x) so the gate survives slow
// shared CI machines while still catching any return of per-state string
// retention or per-frame allocation. Gated behind EXPLORE_BENCH_SMOKE=1
// because absolute throughput is meaningless under -race.
func TestExploreBenchSmoke(t *testing.T) {
	if os.Getenv("EXPLORE_BENCH_SMOKE") == "" {
		t.Skip("set EXPLORE_BENCH_SMOKE=1 to run the explorer throughput gate")
	}
	// Seed baseline measured on the reference machine before the rewrite
	// (BENCH_explore.json keeps the full table).
	const seedStatesPerSec = 20794 // bridge_message, reference explorer
	src := CorpusPrograms()["bridge_message"]
	var best time.Duration
	var states int
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		res, err := ExploreSource(src, ExploreOpts{})
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 || el < best {
			best, states = el, res.StatesVisited
		}
	}
	got := float64(states) / best.Seconds()
	ratio := got / seedStatesPerSec
	t.Logf("bridge_message: %d states in %v = %.0f states/sec (%.1fx seed baseline)", states, best, got, ratio)
	if ratio < 3 {
		t.Fatalf("explorer at %.1fx the seed baseline (want >=3x)", ratio)
	}
}

// Fingerprinting correctness: deterministic, sensitive to every byte
// position (including the <16-byte tail path), and length-aware.
func TestFingerprintOf(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	a, b := fingerprintOf(data), fingerprintOf(data)
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	seen := map[fingerprint]string{}
	// Every prefix must hash differently (exercises all tail lengths 0..15).
	for i := 0; i <= len(data); i++ {
		fp := fingerprintOf(data[:i])
		if prev, dup := seen[fp]; dup {
			t.Fatalf("prefix %q collides with %q", data[:i], prev)
		}
		seen[fp] = string(data[:i])
	}
	// Single-byte perturbations at every offset must change the hash.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 1
		fp := fingerprintOf(mut)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("mutation at %d collides with %q", i, prev)
		}
		seen[fp] = string(mut)
	}
	if fingerprintOf(nil) != fingerprintOf([]byte{}) {
		t.Fatal("nil and empty must hash identically")
	}
}

// The MaxStates bound must stop the whole frontier, not just one node's
// children: after the budget is hit, no further states are admitted.
func TestMaxStatesStopsFrontier(t *testing.T) {
	src := CorpusPrograms()["bridge_message"]
	for _, bound := range []int{10, 100, 1000} {
		res, err := ExploreSource(src, ExploreOpts{MaxStates: bound})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Fatalf("bound %d: expected truncation", bound)
		}
		if res.StatesVisited > bound {
			t.Fatalf("bound %d: visited %d states past the bound", bound, res.StatesVisited)
		}
	}
}
