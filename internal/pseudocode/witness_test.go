package pseudocode

import (
	"fmt"
	"testing"
)

// forTrackingWorkers runs a witness or livelock test with one worker, and
// with four whose parent links and edges come from several goroutines.
func forTrackingWorkers(t *testing.T, f func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { f(t, workers) })
	}
}

func TestDeadlockWitnessReplay(t *testing.T) {
	src := loadFixture(t, "philosophers_symmetric.pc")
	prog, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := Explore(prog, ExploreOpts{TrackWitness: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasDeadlock() {
			t.Fatal("expected deadlock")
		}
		if len(res.DeadlockWitness) == 0 {
			t.Fatal("no witness produced")
		}
		events, w, err := ReplayWitness(prog, Semantics{}, res.DeadlockWitness)
		if err != nil {
			t.Fatalf("witness does not replay: %v", err)
		}
		if len(events) == 0 {
			t.Fatal("replay produced no trace")
		}
		if got := w.Classify(); got != Deadlocked {
			t.Fatalf("replayed schedule ends %v, want deadlocked", got)
		}
	})
}

func TestNoWitnessWhenNoDeadlock(t *testing.T) {
	src := loadFixture(t, "philosophers_asymmetric.pc")
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := ExploreSource(src, ExploreOpts{TrackWitness: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.DeadlockWitness) != 0 {
			t.Fatalf("witness without deadlock: %v", res.DeadlockWitness)
		}
	})
}

func TestWitnessOnLockOrderDeadlock(t *testing.T) {
	src := `a = 0
b = 0
DEFINE left()
    EXC_ACC
        a = a + 1
        EXC_ACC
            b = b + 1
        END_EXC_ACC
    END_EXC_ACC
ENDDEF
DEFINE right()
    EXC_ACC
        b = b + 1
        EXC_ACC
            a = a + 1
        END_EXC_ACC
    END_EXC_ACC
ENDDEF
PARA
    left()
    right()
ENDPARA`
	prog, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := Explore(prog, ExploreOpts{TrackWitness: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		events, w, err := ReplayWitness(prog, Semantics{}, res.DeadlockWitness)
		if err != nil {
			t.Fatal(err)
		}
		if w.Classify() != Deadlocked {
			t.Fatal("witness does not deadlock")
		}
		// The trace must show both acquires succeeding before the cross-blocks.
		acquires := 0
		for _, e := range events {
			if e.Op == "acquire" {
				acquires++
			}
		}
		if acquires < 2 {
			t.Fatalf("witness trace shows %d acquires, want >= 2", acquires)
		}
	})
}

func TestReplayRejectsBogusSchedule(t *testing.T) {
	prog, err := CompileSource(`x = 1
PRINTLN x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayWitness(prog, Semantics{}, []Choice{{TaskIdx: 7, Option: 0}}); err == nil {
		t.Fatal("bogus schedule should fail to replay")
	}
}
