// Command pcexplore enumerates the complete execution space of a
// concurrency-pseudocode program at atomic-statement granularity: all
// possible outputs (the "possibility 1 / possibility 2" sets of the paper's
// Figures 3 and 5), plus any deadlocked configurations.
//
// Usage:
//
//	pcexplore [-max-states N] [-sync-send] [-fifo] [-coarse-lock]
//	          [-por] [-workers N] [-stats] file.pc
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/pseudocode"
)

func main() {
	maxStates := flag.Int("max-states", 0, "state bound (0 = default)")
	por := flag.Bool("por", false, "enable sleep-set partial-order reduction (same results, fewer transitions)")
	workers := flag.Int("workers", 1, "parallel exploration goroutines")
	stats := flag.Bool("stats", false, "report exploration throughput, memory, and POR savings")
	syncSend := flag.Bool("sync-send", false, "misconception semantics [C1]M3: sends block until received")
	fifo := flag.Bool("fifo", false, "misconception semantics [I2]M5: FIFO mailboxes")
	coarse := flag.Bool("coarse-lock", false, "misconception semantics [I1]S7: lock held across whole functions")
	waitKeeps := flag.Bool("wait-keeps-lock", false, "misconception semantics: WAIT() does not release the access")
	notifyOne := flag.Bool("notify-one", false, "ablation: NOTIFY wakes one waiter instead of all")
	livelock := flag.Bool("livelock", false, "also check liveness (tracks the state graph; costs memory)")
	witness := flag.Bool("witness", false, "on deadlock, print a concrete schedule that reproduces it")
	jsonOut := flag.Bool("json", false, "emit the raw exploration result as JSON")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcexplore [flags] file.pc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcexplore:", err)
		os.Exit(1)
	}
	sem := pseudocode.Semantics{
		SendSynchronous: *syncSend,
		FIFOMailboxes:   *fifo,
		CoarseLock:      *coarse,
		WaitKeepsLock:   *waitKeeps,
		NotifyWakesOne:  *notifyOne,
	}
	prog, err := pseudocode.CompileSource(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcexplore:", err)
		os.Exit(1)
	}
	opts := pseudocode.ExploreOpts{
		MaxStates:    *maxStates,
		TrackGraph:   *livelock,
		TrackWitness: *witness,
		POR:          *por,
		Workers:      *workers,
		Sem:          sem,
	}
	start := time.Now()
	res, err := pseudocode.Explore(prog, opts)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcexplore:", err)
		os.Exit(1)
	}
	if *stats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("explored %d distinct states, %d transitions in %v (%.0f states/sec, peak heap %.1f MB)\n",
			res.StatesVisited, res.Transitions, elapsed.Round(time.Microsecond),
			float64(res.StatesVisited)/elapsed.Seconds(), float64(ms.HeapAlloc)/(1<<20))
		if *por {
			// POR savings are relative to the unreduced transition count, so
			// -stats -por pays for one extra unreduced run to report it.
			unreduced := opts
			unreduced.POR = false
			if ur, err := pseudocode.Explore(prog, unreduced); err == nil && ur.Transitions > 0 {
				saved := ur.Transitions - res.Transitions
				fmt.Printf("POR: %d transitions vs %d unreduced (%.1f%% saved)\n",
					res.Transitions, ur.Transitions, 100*float64(saved)/float64(ur.Transitions))
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "pcexplore:", err)
			os.Exit(1)
		}
		if res.Deadlocks > 0 {
			os.Exit(3)
		}
		return
	}
	os.Exit(report(os.Stdout, prog, sem, res, *witness, *livelock))
}

// report prints the result of a run and returns the exit code: 3 when some
// execution deadlocks, else 4 when -livelock found states that cannot reach
// a terminal, 1 when a witness does not replay, 0 otherwise. A truncated
// run's liveness is unknown, so it is reported as not checked.
func report(w io.Writer, prog *pseudocode.Compiled, sem pseudocode.Semantics, res *pseudocode.ExploreResult, witness, livelock bool) int {
	fmt.Fprintf(w, "states visited: %d\n", res.StatesVisited)
	if res.Truncated {
		fmt.Fprintln(w, "WARNING: exploration truncated; results are a lower bound")
	}
	fmt.Fprintf(w, "distinct outputs (%d):\n", len(res.Outputs))
	for i, o := range res.Outputs {
		fmt.Fprintf(w, "  possibility %d: %q\n", i+1, o)
	}
	code := 0
	if res.Deadlocks > 0 {
		code = 3
		fmt.Fprintf(w, "DEADLOCKS: %d distinct deadlocked states\n", res.Deadlocks)
		for _, term := range res.Terminals {
			if term.Kind == pseudocode.Deadlocked {
				fmt.Fprintf(w, "  blocked: %v after output %q\n", term.Blocked, term.Output)
			}
		}
		if witness && len(res.DeadlockWitness) > 0 {
			fmt.Fprintln(w, "witness schedule (replayed):")
			events, _, err := pseudocode.ReplayWitness(prog, sem, res.DeadlockWitness)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcexplore: replay failed:", err)
				return 1
			}
			for _, ev := range events {
				fmt.Fprintf(w, "  [%s] %s line %d %s\n", ev.TaskName, ev.Op, ev.Line, ev.Detail)
			}
		}
	} else {
		fmt.Fprintln(w, "no deadlocks")
	}
	if livelock {
		switch {
		case res.Truncated:
			fmt.Fprintln(w, "liveness not checked: exploration truncated")
		case res.LivelockFree:
			fmt.Fprintln(w, "livelock-free: every state can reach a terminal")
		default:
			fmt.Fprintf(w, "LIVELOCK: %d states cannot reach any terminal\n", res.DivergentStates)
			if code == 0 {
				code = 4
			}
		}
	}
	return code
}
