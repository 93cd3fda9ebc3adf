// Package repro_test is the top-level benchmark harness: one benchmark per
// paper table/figure plus the cross-model performance matrix and the
// ablations called out in DESIGN.md §5.
//
// Experiment index (see DESIGN.md §3 and EXPERIMENTS.md):
//
//	Figure 3  -> BenchmarkFig3Explore        (exhaustive PARA interleavings)
//	Figure 4  -> BenchmarkFig4Explore        (EXC_ACC + WAIT/NOTIFY space)
//	Figure 5  -> BenchmarkFig5Explore        (message-delivery space)
//	Figs 6-7  -> BenchmarkTest1Bridge*       (Test-1 bridge ground truths)
//	Table I   -> (static catalog; no bench)
//	Table II  -> BenchmarkStudyTable2        (full simulated study)
//	Table III -> BenchmarkStudyTable3        (misconception attribution)
//	§IV perf  -> BenchmarkProblem/*          (9 problems x 3 models)
//	          -> BenchmarkSpawn*, BenchmarkComm*, BenchmarkSync* (micro)
//	Ablations -> BenchmarkAblation*
//	Hot path  -> BenchmarkMailbox*, BenchmarkDispatch* (docs/PERF.md)
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/coro"
	_ "repro/internal/problems/registry"
	"repro/internal/pseudocode"
	"repro/internal/study"
	"repro/internal/threads"
)

// --- Figures 3-5: exhaustive exploration of the paper's example programs ---

const fig3Src = `
DEFINE print()
    PRINT "hi "
    PRINT "there "
ENDDEF
PARA
    print()
    PRINT "world "
ENDPARA
`

const fig4Src = `
x = 10
DEFINE changeX(diff)
    EXC_ACC
        WHILE x + diff < 0
            WAIT()
        ENDWHILE
        x = x + diff
        NOTIFY()
    END_EXC_ACC
ENDDEF
PARA
    changeX(-11)
    changeX(1)
ENDPARA
PRINTLN x
`

const fig5Src = `
CLASS Receiver
    DEFINE receive
        ON_RECEIVING
            MESSAGE.h(var)
                PRINT var
            MESSAGE.w(var)
                PRINTLN var
    ENDDEF
ENDCLASS
m1 = MESSAGE.h("hello ")
m2 = MESSAGE.w("world")
r1 = new Receiver()
r1.receive()
Send(m1).To(r1)
Send(m2).To(r1)
`

func benchExplore(b *testing.B, src string, wantOutputs int) {
	b.Helper()
	prog, err := pseudocode.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pseudocode.Explore(prog, pseudocode.ExploreOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outputs) != wantOutputs {
			b.Fatalf("outputs = %d, want %d", len(res.Outputs), wantOutputs)
		}
	}
}

func BenchmarkFig3Explore(b *testing.B) { benchExplore(b, fig3Src, 3) }
func BenchmarkFig4Explore(b *testing.B) { benchExplore(b, fig4Src, 1) }
func BenchmarkFig5Explore(b *testing.B) { benchExplore(b, fig5Src, 2) }

// --- Figures 6-7 / Tables II-III: the simulated study ---

func BenchmarkTest1BridgeQuestions(b *testing.B) {
	// Ground-truth computation for the Test-1 question bank (cached after
	// the first call; this measures the steady-state cost).
	for i := 0; i < b.N; i++ {
		bank, err := study.BuildBank()
		if err != nil {
			b.Fatal(err)
		}
		if len(bank.Questions) != 16 {
			b.Fatalf("bank = %d questions", len(bank.Questions))
		}
	}
}

func BenchmarkStudyTable2(b *testing.B) {
	if _, err := study.BuildBank(); err != nil { // pay exploration once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := study.Run(study.Config{Seed: int64(i + 1), PermIters: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Session2Mean == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkStudyTable3(b *testing.B) {
	if _, err := study.BuildBank(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := study.Run(study.Config{Seed: int64(i + 1), PermIters: 100})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Table3().String()
	}
}

// --- The cross-model performance matrix (the course's "efficiency" axis) ---

var benchParams = map[string]core.Params{
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

func BenchmarkProblem(b *testing.B) {
	for _, name := range core.Default.Names() {
		spec, err := core.Default.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range core.AllModels {
			if spec.Runs[m] == nil {
				continue // chaos variants are actors-only
			}
			b.Run(fmt.Sprintf("%s/%s", name, m), func(b *testing.B) {
				params := benchParams[name]
				for i := 0; i < b.N; i++ {
					if _, err := spec.Run(m, params, int64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Mailbox & dispatcher (actor hot path; see docs/PERF.md) ---

// BenchmarkMailboxTellThroughput is the end-to-end tentpole number: 8
// concurrent senders flooding one actor through the public Tell path. The
// default config rides the chunked MPSC ring mailbox; see internal/actors
// for the isolated ring-vs-locked comparison.
func BenchmarkMailboxTellThroughput(b *testing.B) {
	sys := actors.NewSystem(actors.Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
		count++
		if count == b.N {
			close(done)
		}
	})
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		n := b.N / 8
		if s < b.N%8 {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sink.Tell(i)
			}
		}(n)
	}
	wg.Wait()
	if b.N > 0 {
		<-done
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkDispatchSpawn100kIdle spawns 100k no-op actors and reports
// goroutines per actor, ~0: an idle actor costs no goroutine.
func BenchmarkDispatchSpawn100kIdle(b *testing.B) {
	const idle = 100000
	for i := 0; i < b.N; i++ {
		before := runtime.NumGoroutine()
		sys := actors.NewSystem(actors.Config{})
		for j := 0; j < idle; j++ {
			sys.MustSpawn("idle", func(ctx *actors.Context, msg any) {})
		}
		b.ReportMetric(float64(runtime.NumGoroutine()-before)/idle, "goroutines/actor")
		b.StopTimer()
		sys.Shutdown()
		b.StartTimer()
	}
}

// --- Microbenchmarks: task creation, communication, synchronization ---

func BenchmarkSpawnGoroutine(b *testing.B) {
	var wg sync.WaitGroup
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
}

func BenchmarkSpawnActor(b *testing.B) {
	sys := actors.NewSystem(actors.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.MustSpawn("bench", func(ctx *actors.Context, msg any) {})
	}
	b.StopTimer()
	sys.Shutdown()
}

func BenchmarkSpawnCoroutine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		co := coro.New(func(y *coro.Yielder, in any) any { return in })
		if _, _, err := co.Resume(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommMonitorHandoff(b *testing.B) {
	var m threads.Monitor
	value := 0
	full := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			m.Enter()
			m.WaitUntil("full", func() bool { return full })
			full = false
			_ = value
			m.NotifyAll("empty")
			m.Exit()
		}
	}()
	for i := 0; i < b.N; i++ {
		m.Enter()
		m.WaitUntil("empty", func() bool { return !full })
		value = i
		full = true
		m.NotifyAll("full")
		m.Exit()
	}
	<-done
}

func BenchmarkCommActorMessage(b *testing.B) {
	sys := actors.NewSystem(actors.Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
		count++
		if count == b.N {
			close(done)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Tell(i)
	}
	<-done
}

func BenchmarkCommCoroutineYield(b *testing.B) {
	co := coro.New(func(y *coro.Yielder, in any) any {
		for {
			y.Yield(nil)
		}
	})
	for i := 0; i < b.N; i++ {
		if _, _, err := co.Resume(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncMonitorUncontended(b *testing.B) {
	var m threads.Monitor
	for i := 0; i < b.N; i++ {
		m.Enter()
		m.Exit()
	}
}

func BenchmarkSyncMonitorContended(b *testing.B) {
	var m threads.Monitor
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Enter()
			m.Exit()
		}
	})
}

func BenchmarkSyncSemaphore(b *testing.B) {
	s := threads.NewSemaphore(1)
	for i := 0; i < b.N; i++ {
		s.Acquire()
		s.Release()
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationTicketLockVsMutex(b *testing.B) {
	b.Run("ticketlock", func(b *testing.B) {
		var l threads.TicketLock
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.Lock()
				l.Unlock()
			}
		})
	})
	b.Run("sync.Mutex", func(b *testing.B) {
		var l sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.Lock()
				l.Unlock()
			}
		})
	})
}

func BenchmarkAblationMailboxPerturbation(b *testing.B) {
	for _, cfg := range []struct {
		name string
		seed int64
	}{{"fifo", 0}, {"perturbed", 42}} {
		b.Run(cfg.name, func(b *testing.B) {
			sys := actors.NewSystem(actors.Config{PerturbSeed: cfg.seed})
			defer sys.Shutdown()
			done := make(chan struct{})
			count := 0
			sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
				count++
				if count == b.N {
					close(done)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Tell(i)
			}
			<-done
		})
	}
}

func BenchmarkAblationMailboxBounded(b *testing.B) {
	for _, cfg := range []struct {
		name string
		cap  int
	}{{"unbounded", 0}, {"cap-1024", 1024}, {"cap-16", 16}} {
		b.Run(cfg.name, func(b *testing.B) {
			sys := actors.NewSystem(actors.Config{MailboxCap: cfg.cap})
			defer sys.Shutdown()
			done := make(chan struct{})
			count := 0
			sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
				count++
				if count == b.N {
					close(done)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Tell(i)
			}
			<-done
		})
	}
}

func BenchmarkAblationNotifyOneVsAll(b *testing.B) {
	prog, err := pseudocode.CompileSource(fig4Src)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		sem  pseudocode.Semantics
	}{
		{"notify-all", pseudocode.Semantics{}},
		{"notify-one", pseudocode.Semantics{NotifyWakesOne: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pseudocode.Explore(prog, pseudocode.ExploreOpts{Sem: cfg.sem}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCoroHandoff(b *testing.B) {
	// Coroutine switch (iter.Pull, as implemented, with the status
	// machine) vs a raw channel ping-pong — the round trip through the
	// run queue that a channel-handshake coroutine would pay per switch.
	b.Run("coroutine", func(b *testing.B) {
		co := coro.New(func(y *coro.Yielder, in any) any {
			for {
				y.Yield(nil)
			}
		})
		for i := 0; i < b.N; i++ {
			co.Resume(nil)
		}
	})
	b.Run("rawchannels", func(b *testing.B) {
		in := make(chan any)
		out := make(chan any)
		go func() {
			for range in {
				out <- nil
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in <- nil
			<-out
		}
		b.StopTimer()
		close(in)
	})
}
