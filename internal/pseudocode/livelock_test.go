package pseudocode

import "testing"

func TestLivelockUnconditionalDeferral(t *testing.T) {
	// A receiver that always re-sends to itself never quiesces: every
	// state is divergent (pure livelock — no terminal exists at all).
	src := `CLASS R
    DEFINE run
        ON_RECEIVING
            MESSAGE.m(v)
                Send(MESSAGE.m(v)).To(self)
    ENDDEF
ENDCLASS
r = new R()
r.run()
Send(MESSAGE.m(1)).To(r)`
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := ExploreSource(src, ExploreOpts{TrackGraph: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatal("truncated")
		}
		if len(res.Terminals) != 0 {
			t.Fatalf("pure livelock should have no terminals: %+v", res.Terminals)
		}
		if res.LivelockFree {
			t.Fatal("livelock not detected")
		}
		if res.DivergentStates != res.StatesVisited {
			t.Fatalf("every state should be divergent: %d of %d",
				res.DivergentStates, res.StatesVisited)
		}
	})
}

func TestLivelockFreeWithConditionalDeferral(t *testing.T) {
	// The bridge-style deferral loops only while the guard holds; once the
	// guard clears, every state can reach quiescence — livelock-free even
	// though the graph has cycles.
	src := `done = 0
CLASS R
    DEFINE run
        ON_RECEIVING
            MESSAGE.work(v)
                IF v > 0 THEN
                    Send(MESSAGE.work(v - 1)).To(self)
                ELSE
                    done = 1
                ENDIF
    ENDDEF
ENDCLASS
r = new R()
r.run()
Send(MESSAGE.work(3)).To(r)`
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := ExploreSource(src, ExploreOpts{TrackGraph: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.LivelockFree {
			t.Fatalf("countdown protocol flagged as livelock: %d divergent states", res.DivergentStates)
		}
		if len(res.Terminals) == 0 {
			t.Fatal("no terminals found")
		}
	})
}

func TestLivelockFigureProgramsAreFree(t *testing.T) {
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		for _, f := range []string{"fig3c_interleave.pc", "fig4b_waitnotify.pc", "fig5_messages.pc"} {
			res, err := ExploreSource(loadFixture(t, f), ExploreOpts{TrackGraph: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if !res.LivelockFree {
				t.Fatalf("%s: spurious livelock, %d divergent states", f, res.DivergentStates)
			}
		}
	})
}

func TestLivelockDeadlockIsNotDivergence(t *testing.T) {
	// Deadlocked states are terminals: the symmetric philosophers deadlock
	// but do not livelock.
	src := loadFixture(t, "philosophers_symmetric.pc")
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := ExploreSource(src, ExploreOpts{TrackGraph: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasDeadlock() {
			t.Fatal("expected deadlock")
		}
		if !res.LivelockFree {
			t.Fatalf("deadlock misreported as livelock: %d divergent", res.DivergentStates)
		}
	})
}

func TestMessageBridgeLivelockFree(t *testing.T) {
	if testing.Short() {
		t.Skip("message-bridge graph tracking is expensive")
	}
	src := loadFixture(t, "bridge_message.pc")
	forTrackingWorkers(t, func(t *testing.T, workers int) {
		res, err := ExploreSource(src, ExploreOpts{TrackGraph: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.LivelockFree {
			t.Fatalf("the deferral protocol should always be able to drain: %d divergent states",
				res.DivergentStates)
		}
	})
}
