// Command benchtables regenerates the reproduction's performance
// comparison: every classical problem timed under all three concurrency
// models, plus model microbenchmarks (spawn, communication, and
// synchronization primitives). This is the quantitative side of the
// course's goal that students "investigate the efficiency of these
// implementations".
//
// Usage:
//
//	benchtables [-reps N] [-quick] [-json FILE] [-remote] [-json-remote FILE]
//	           [-obs] [-json-obs FILE]
//	           [-overload] [-json-overload FILE]
//
// -json writes the mailbox/dispatcher numbers to FILE (the committed
// baseline lives at BENCH_mailbox.json; see docs/PERF.md). -remote appends
// the node-to-node wire table, and -json-remote writes it to FILE (the
// committed baseline lives at BENCH_remote.json; see docs/REMOTE.md).
// -obs appends the instrumentation-overhead table — the same Tell flood
// with observability off, on at the default sampling rate, with the
// conservation ledger, and timing every message — and -json-obs writes it
// to FILE (committed baseline: BENCH_obs.json; see docs/OBSERVABILITY.md).
// -overload appends the overload-protection table — achieved throughput,
// ask p99, and shed volume at 1×/4×/16× the sink's service rate under
// credit-based flow control — and -json-overload writes it to FILE
// (committed baseline: BENCH_overload.json; see docs/REMOTE.md).
// -explore appends the pseudocode explorer throughput table — states/sec,
// transition counts with and without partial-order reduction, parallel
// rates, and the study ground-truth regeneration time — and -json-explore
// writes it to FILE (committed baseline: BENCH_explore.json; see
// docs/PERF.md). -explore-only runs just that table (CI smoke).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/metrics"
	_ "repro/internal/problems/registry"
	"repro/internal/threads"
)

func main() {
	reps := flag.Int("reps", 3, "repetitions per cell (median reported)")
	quick := flag.Bool("quick", false, "smaller workloads")
	jsonPath := flag.String("json", "", "write the mailbox/dispatcher baseline to this file")
	withRemote := flag.Bool("remote", false, "also run the node-to-node wire table")
	jsonRemotePath := flag.String("json-remote", "", "write the remote wire baseline to this file (implies -remote)")
	withObs := flag.Bool("obs", false, "also run the instrumentation-overhead table")
	jsonObsPath := flag.String("json-obs", "", "write the instrumentation-overhead baseline to this file (implies -obs)")
	withOverload := flag.Bool("overload", false, "also run the overload-protection table")
	jsonOverloadPath := flag.String("json-overload", "", "write the overload-protection baseline to this file (implies -overload)")
	withCluster := flag.Bool("cluster", false, "also run the cluster sharding table (full baseline: cmd/loadgen)")
	clusterOnly := flag.Bool("cluster-only", false, "run only the cluster sharding table (CI smoke)")
	withTrace := flag.Bool("trace", false, "also run the distributed-tracing overhead table")
	jsonTracePath := flag.String("json-trace", "", "write the tracing-overhead baseline to this file (implies -trace)")
	withExplore := flag.Bool("explore", false, "also run the pseudocode explorer throughput table")
	jsonExplorePath := flag.String("json-explore", "", "write the explorer baseline to this file (implies -explore)")
	exploreOnly := flag.Bool("explore-only", false, "run only the explorer throughput table (CI smoke)")
	flag.Parse()

	if *clusterOnly {
		clusterTable(*reps, scaleOf(*quick))
		return
	}
	if *exploreOnly {
		entries := exploreTable(*reps, scaleOf(*quick))
		if *jsonExplorePath != "" {
			if err := writeExploreBaseline(*jsonExplorePath, scaleOf(*quick), entries); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	scale := scaleOf(*quick)

	problemTable(*reps, scale)
	fmt.Println()
	microTable(*reps, scale)
	fmt.Println()
	entries := mailboxTable(*reps, scale)

	if *jsonPath != "" {
		if err := writeBaseline(*jsonPath, scale, entries); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}

	if *withRemote || *jsonRemotePath != "" {
		fmt.Println()
		remoteEntries := remoteTable(*reps, scale)
		if *jsonRemotePath != "" {
			if err := writeRemoteBaseline(*jsonRemotePath, scale, remoteEntries); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *withObs || *jsonObsPath != "" {
		fmt.Println()
		obsEntries := obsTable(*reps, scale)
		if *jsonObsPath != "" {
			if err := writeObsBaseline(*jsonObsPath, scale, obsEntries); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *withOverload || *jsonOverloadPath != "" {
		fmt.Println()
		overloadEntries := overloadTable(*reps, scale)
		if *jsonOverloadPath != "" {
			if err := writeOverloadBaseline(*jsonOverloadPath, scale, overloadEntries); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *withTrace || *jsonTracePath != "" {
		fmt.Println()
		traceEntries := traceTable(*reps, scale)
		if *jsonTracePath != "" {
			if err := writeTraceBaseline(*jsonTracePath, scale, traceEntries); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *withExplore || *jsonExplorePath != "" {
		fmt.Println()
		exploreEntries := exploreTable(*reps, scale)
		if *jsonExplorePath != "" {
			if err := writeExploreBaseline(*jsonExplorePath, scale, exploreEntries); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *withCluster {
		fmt.Println()
		clusterTable(*reps, scale)
	}
}

// scaleOf maps -quick to the workload divisor shared by every table.
func scaleOf(quick bool) int {
	if quick {
		return 4
	}
	return 1
}

// obsTable measures what turning observability on costs the actor hot path:
// the same 8-sender Tell flood with no Obs, with the default 1-in-64
// latency sampling, with sampling plus the exact conservation ledger, and
// timing every message (Sample=1). The overhead column is relative to the
// uninstrumented row; docs/OBSERVABILITY.md states the ≤15% bound for the
// default-sampling row, which the CI smoke job enforces.
func obsTable(reps, scale int) []benchEntry {
	t := metrics.NewTable("INSTRUMENTATION OVERHEAD: 8-sender Tell flood (docs/OBSERVABILITY.md)",
		"Case", "throughput", "overhead")
	var entries []benchEntry
	n := 200000 / scale

	obsCfg := func(sample int, conserve bool) actors.Config {
		o := actors.NewObs(metrics.NewRegistry(), "actors")
		o.Sample = sample
		o.Conserve = conserve
		return actors.Config{Obs: o}
	}
	cases := []struct {
		name string
		cfg  actors.Config
	}{
		{"no obs (baseline)", actors.Config{}},
		{"obs, sample 1/64 (default)", obsCfg(0, false)},
		{"obs + conservation ledger", obsCfg(0, true)},
		{"obs, every message (sample 1)", obsCfg(1, false)},
	}
	// Interleave the cases within each repetition rather than running each
	// case's reps back to back: overhead is a ratio between cases, and
	// machine drift (frequency scaling, a neighbor's load) over the seconds
	// a back-to-back sweep takes reads as fake overhead. Interleaving puts
	// every case under the same drift. Per case, take the best (fastest)
	// repetition, not the median: the flood runs hot for ~20ms, so any
	// scheduler hiccup only ever adds time, and on a shared machine those
	// additions dominate the median while the minimum converges on the
	// undisturbed cost — the same aggregation the CI smoke bound uses.
	best := make([]float64, len(cases))
	for r := 0; r < reps+1; r++ {
		for i, c := range cases {
			start := time.Now()
			if err := tellFloodOnce(c.cfg, 8, n); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", c.name, err)
				os.Exit(1)
			}
			d := float64(time.Since(start))
			if r == 0 {
				continue // warmup round: page in code, grow the heap
			}
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	var base float64
	for i, c := range cases {
		rate := float64(n) / (best[i] / 1e9)
		overhead := "-"
		if i == 0 {
			base = rate
		} else if base > 0 {
			pct := (base - rate) / base * 100
			overhead = fmt.Sprintf("%+.1f%%", pct)
			entries = append(entries, benchEntry{Name: c.name, Metric: "overhead_pct", Value: pct})
		}
		t.AddRow(c.name, fmt.Sprintf("%.2fM msgs/sec", rate/1e6), overhead)
		entries = append(entries, benchEntry{Name: c.name, Metric: "msgs/sec", Value: rate})
	}
	fmt.Print(t)
	return entries
}

// writeObsBaseline persists the instrumentation-overhead entries as the
// committed regression baseline (BENCH_obs.json).
func writeObsBaseline(path string, scale int, entries []benchEntry) error {
	doc := struct {
		Note    string       `json:"note"`
		Command string       `json:"command"`
		Scale   int          `json:"scale"`
		Entries []benchEntry `json:"entries"`
	}{
		Note: "Instrumentation overhead baseline. Machine-dependent: compare the " +
			"overhead_pct entries (instrumented vs uninstrumented Tell), not the " +
			"absolute rates. The default-sampling row is the one bounded at 15%.",
		Command: "go run ./cmd/benchtables -json-obs BENCH_obs.json",
		Scale:   scale,
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(start)))
	}
	med, err := metrics.Median(durs)
	if err != nil {
		return 0, err
	}
	return time.Duration(med), nil
}

func problemTable(reps, scale int) {
	t := metrics.NewTable("CROSS-MODEL PERFORMANCE: classical problems (median wall time)",
		"Problem", "threads", "actors", "coroutines", "fastest")
	params := map[string]core.Params{
		"boundedbuffer":      {"producers": 4, "consumers": 4, "items": 2000 / scale, "capacity": 16},
		"diningphilosophers": {"philosophers": 5, "meals": 400 / scale},
		"readerswriters":     {"readers": 6, "writers": 2, "ops": 1000 / scale},
		"sleepingbarber":     {"barbers": 2, "chairs": 4, "customers": 2000 / scale},
		"partymatching":      {"pairs": 1000 / scale},
		"singlelanebridge":   {"red": 3, "blue": 3, "crossings": 200 / scale},
		"bookinventory":      {"titles": 10, "clients": 6, "ops": 1000 / scale, "initial": 20},
		"sumworkers":         {"workers": 8, "n": 400000 / scale},
		"threadpool":         {"workers": 4, "tasks": 4000 / scale, "queue": 16},
	}
	for _, name := range core.Default.Names() {
		spec, _ := core.Default.Get(name)
		if len(spec.Runs) < len(core.AllModels) {
			continue // cross-model rows need all three models (skips chaos variants)
		}
		row := []string{name}
		best := core.Threads
		var bestDur time.Duration
		for _, m := range core.AllModels {
			d, err := timeMedian(reps, func() error {
				_, err := spec.Run(m, params[name], 1)
				return err
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %s/%s: %v\n", name, m, err)
				os.Exit(1)
			}
			row = append(row, d.Round(time.Microsecond).String())
			if bestDur == 0 || d < bestDur {
				bestDur, best = d, m
			}
		}
		row = append(row, best.String())
		t.AddRow(row...)
	}
	fmt.Print(t)
}

func microTable(reps, scale int) {
	t := metrics.NewTable("MODEL MICROBENCHMARKS (median, lower is better)",
		"Operation", "cost")
	n := 100000 / scale

	add := func(name string, per int, fn func() error) {
		d, err := timeMedian(reps, fn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
			os.Exit(1)
		}
		t.AddRow(name, fmt.Sprintf("%.0f ns/op", float64(d.Nanoseconds())/float64(per)))
	}

	add("goroutine spawn+join (threads substrate)", n, func() error {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go wg.Done()
		}
		wg.Wait()
		return nil
	})
	add("actor spawn+stop", n/10, func() error {
		sys := actors.NewSystem(actors.Config{})
		for i := 0; i < n/10; i++ {
			ref := sys.MustSpawn("a", func(ctx *actors.Context, msg any) {})
			_ = ref
		}
		sys.Shutdown()
		return nil
	})
	add("coroutine create+drain", n/10, func() error {
		for i := 0; i < n/10; i++ {
			co := coro.New(func(y *coro.Yielder, in any) any { return in })
			if _, _, err := co.Resume(nil); err != nil {
				return err
			}
		}
		return nil
	})
	add("monitor enter/exit", n, func() error {
		var m threads.Monitor
		for i := 0; i < n; i++ {
			m.Enter()
			m.Exit()
		}
		return nil
	})
	add("actor message round trip", n/10, func() error {
		sys := actors.NewSystem(actors.Config{})
		defer sys.Shutdown()
		done := make(chan struct{})
		count := 0
		var echo *actors.Ref
		pinger := sys.MustSpawn("pinger", func(ctx *actors.Context, msg any) {
			count++
			if count >= n/10 {
				close(done)
				return
			}
			ctx.Send(echo, struct{}{})
		})
		echo = sys.MustSpawn("echo", func(ctx *actors.Context, msg any) { ctx.Reply(msg) })
		pinger.Tell(struct{}{})
		<-done
		return nil
	})
	add("coroutine yield/resume round trip", n, func() error {
		co := coro.New(func(y *coro.Yielder, in any) any {
			for {
				y.Yield(nil)
			}
		})
		for i := 0; i < n; i++ {
			if _, _, err := co.Resume(nil); err != nil {
				return err
			}
		}
		return nil
	})
	fmt.Print(t)
}

// benchEntry is one row of the mailbox/dispatcher baseline (BENCH_mailbox.json).
type benchEntry struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

// tellFloodOnce floods one actor with n messages from the given number of
// concurrent senders through the public Tell path, once.
func tellFloodOnce(cfg actors.Config, senders, n int) error {
	sys := actors.NewSystem(cfg)
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
		count++
		if count == n {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		per := n / senders
		if s < n%senders {
			per++
		}
		wg.Add(1)
		go func(per int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Tell(i)
			}
		}(per)
	}
	wg.Wait()
	<-done
	return nil
}

// tellThroughput returns the flood's msgs/sec (median of reps runs).
func tellThroughput(reps int, cfg actors.Config, senders, n int) (float64, error) {
	d, err := timeMedian(reps, func() error { return tellFloodOnce(cfg, senders, n) })
	if err != nil {
		return 0, err
	}
	return float64(n) / d.Seconds(), nil
}

// mailboxTable prints the actor hot-path numbers (see docs/PERF.md) and
// returns them for the -json baseline. The "bounded mailbox" row sets a cap
// far above the workload, so every send takes the bounded admission CAS and
// none ever waits: against the 8-sender ring row it isolates the cost of
// admission on an otherwise identical system.
func mailboxTable(reps, scale int) []benchEntry {
	t := metrics.NewTable("ACTOR HOT PATH: mailbox & dispatcher (docs/PERF.md)",
		"Case", "value")
	var entries []benchEntry
	n := 200000 / scale

	addTell := func(name string, cfg actors.Config, senders int) {
		rate, err := tellThroughput(reps, cfg, senders, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
			os.Exit(1)
		}
		t.AddRow(name, fmt.Sprintf("%.2fM msgs/sec", rate/1e6))
		entries = append(entries, benchEntry{Name: name, Metric: "msgs/sec", Value: rate})
	}
	boundCap := 1 << 30 // far above n: bounded semantics never bite
	addTell("tell ring mailbox, 1 sender", actors.Config{}, 1)
	addTell("tell ring mailbox, 8 senders", actors.Config{}, 8)
	addTell("tell bounded mailbox, 8 senders", actors.Config{MailboxCap: boundCap}, 8)

	idle := 100000 / scale
	name := fmt.Sprintf("spawn %dk idle actors", idle/1000)
	var perActor float64
	_, err := timeMedian(reps, func() error {
		before := runtime.NumGoroutine()
		sys := actors.NewSystem(actors.Config{})
		for i := 0; i < idle; i++ {
			sys.MustSpawn("idle", func(ctx *actors.Context, msg any) {})
		}
		perActor = float64(runtime.NumGoroutine()-before) / float64(idle)
		sys.Shutdown()
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
		os.Exit(1)
	}
	t.AddRow(name, fmt.Sprintf("%.3f goroutines/actor", perActor))
	entries = append(entries, benchEntry{Name: name, Metric: "goroutines/actor", Value: perActor})
	fmt.Print(t)
	return entries
}

// writeBaseline persists the mailbox/dispatcher entries as the committed
// regression baseline. Values are machine-dependent: the file records the
// shape of the numbers (ratios, goroutine counts), not portable absolutes.
func writeBaseline(path string, scale int, entries []benchEntry) error {
	doc := struct {
		Note    string       `json:"note"`
		Command string       `json:"command"`
		Scale   int          `json:"scale"`
		Entries []benchEntry `json:"entries"`
	}{
		Note: "Actor mailbox/dispatcher baseline. Machine-dependent: compare " +
			"ratios (ring vs bounded), not absolutes.",
		Command: "go run ./cmd/benchtables -json BENCH_mailbox.json",
		Scale:   scale,
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
