package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// traceData is what the traced run measured, from which the per-layer rows
// are derived.
type traceData struct {
	spans    spanSet
	w1, w2   window   // untraced and traced windows of the workload alone
	fwdShare float64  // share of loadgen ops whose grain lives on another node
	delta    counters // layer counters over the whole traced run
	flood    counters // the probe flood pair's counters over the run
	codec    codecStats
	// gcTailShare is the share of the traced windows' slowest ops (at or
	// above their p999) whose span overlaps a GC stop-the-world pause.
	gcTailShare float64
}

// gcTailShare finds the workload ops of the traced windows at or above
// their p999 duration and returns the share that overlap one of pauses.
func gcTailShare(lanes []*lane, pauses [][2]int64) float64 {
	var ops []span
	for _, l := range lanes {
		for _, s := range l.spans {
			if s.parent >= 0 && l.spans[s.parent].name == "window.traced" {
				ops = append(ops, s)
			}
		}
	}
	durs := make([]float64, len(ops))
	for i, s := range ops {
		durs[i] = float64(s.end - s.start)
	}
	sort.Float64s(durs)
	cut := quantile(durs, 0.999)
	var tail, hit int
	for _, s := range ops {
		if float64(s.end-s.start) < cut {
			continue
		}
		tail++
		for _, p := range pauses {
			if s.start < p[1] && s.end > p[0] {
				hit++
				break
			}
		}
	}
	if tail == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(tail)
}

func (t *traceData) p50(name string) float64  { return quantile(t.spans.perUnit(name), 0.5) }
func (t *traceData) p999(name string) float64 { return quantile(t.spans.perUnit(name), 0.999) }

// statesPerSec is the median rate, in units of work per second, of the
// named spans (states for explorations, messages for flood bursts).
func (t *traceData) statesPerSec(name string) float64 {
	var rates []float64
	for _, s := range t.spans[name] {
		rates = append(rates, float64(s.n)/(float64(s.end-s.start)/1e9))
	}
	return median(rates)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerRow is one per-layer metric with the end-to-end metric it should
// move.
type layerRow struct {
	name, unit, moves string
	value             float64
}

const (
	movesActors     = "cluster-ask latency_p50_us; course-problems actors_suite_ms; error_rate"
	movesCodec      = "cluster-ask latency_p50_us, cpu_us_per_op"
	movesFlood      = "none end to end: the flood is a probe, not a workload"
	movesLoss       = "error_rate on every workload"
	movesAsk        = "cluster-ask latency_p50_us"
	movesCluster    = "cluster-ask latency_p50_us, latency_p999_us"
	movesLoadgen    = "cluster-ask latency_p50_us, ops_per_s"
	movesThreads    = "course-problems threads_suite_ms"
	movesCoro       = "course-problems coro_suite_ms"
	movesExplore    = "explore-corpus ops_per_s"
	movesBigExplore = "none end to end: a probe only, not in explore-corpus"
	movesCompile    = "explore-corpus setup_s"
	movesRuntime    = "cpu_us_per_op on this workload"
	movesOverhead   = "none: the cost of tracing itself"
)

// modelSuite names a model's suite row (the paper's comparison).
func modelSuite(m core.Model) string {
	if m == core.Coroutines {
		return "problems.coro_suite_ms"
	}
	return "problems." + m.String() + "_suite_ms"
}

// layerRows derives every per-layer metric. With an empty traceData it
// still lists every row (values NaN), which the tests use.
func layerRows(t *traceData) []layerRow {
	us := func(ns float64) float64 { return ns / 1e3 }
	askLocal, remoteAsk := us(t.p50("actors.ask_local")), us(t.p50("remote.ask"))
	ownerLocal, forwarded := us(t.p50("cluster.ask_owner_local")), us(t.p50("cluster.ask_forwarded"))
	mix := t.fwdShare*forwarded + (1-t.fwdShare)*ownerLocal
	rows := []layerRow{
		{"actors.spawn_stop_us", "us", movesActors, us(t.p50("actors.spawn_stop"))},
		{"actors.ask_local_us", "us", movesActors, askLocal},
		{"actors.ask_local_p999_us", "us", movesCluster, us(t.p999("actors.ask_local"))},
		{"actors.tell_ns", "ns", movesActors, t.p50("actors.tell")},
		{"actors.deadletters", "count", movesLoss, float64(t.delta.deadletters)},

		{"remote.encode_ns", "ns", movesCodec, t.codec.encodeNs},
		{"remote.decode_ns", "ns", movesCodec, t.codec.decodeNs},
		{"remote.encode_allocs", "count", movesCodec, t.codec.encodeAllocs},
		{"remote.bytes_per_frame", "bytes", movesCodec, t.codec.bytesPerFrame},
		{"remote.flood_msgs_per_s", "1/s", movesFlood, t.statesPerSec("remote.flood_burst")},
		{"remote.frames_per_batch", "count", movesFlood, ratio(t.flood.batchedFrames, t.flood.batches)},
		{"remote.credit_stalls_per_kmsg", "count", movesFlood, 1000 * ratio(t.flood.stalls, t.flood.sent)},
		{"remote.outbox_overflows", "count", movesLoss, float64(t.delta.outboxOverflows)},
		{"remote.inbound_shed", "count", movesLoss, float64(t.delta.inboundShed)},
		{"remote.ask_us", "us", movesAsk, remoteAsk},
		{"remote.ask_p999_us", "us", movesCluster, us(t.p999("remote.ask"))},
		{"remote.wire_us", "us", movesAsk, remoteAsk - askLocal},

		{"cluster.owner_lookup_ns", "ns", movesCluster, t.p50("cluster.owner_lookup")},
		{"cluster.ask_owner_local_us", "us", movesCluster, ownerLocal},
		{"cluster.ask_owner_local_p999_us", "us", movesCluster, us(t.p999("cluster.ask_owner_local"))},
		{"cluster.ask_forwarded_us", "us", movesCluster, forwarded},
		{"cluster.ask_forwarded_p999_us", "us", movesCluster, us(t.p999("cluster.ask_forwarded"))},
		{"cluster.route_us", "us", movesCluster, ownerLocal - askLocal},
		{"cluster.forward_us", "us", movesCluster, forwarded - remoteAsk},
		{"cluster.forward_share", "ratio", movesCluster, t.fwdShare},
		{"cluster.activations", "count", movesCluster, float64(t.delta.activations)},
		{"cluster.parked", "count", movesCluster, float64(t.delta.parked)},
		{"cluster.forward_drops", "count", movesCluster, float64(t.delta.fwdDropped)},

		{"loadgen.op_us", "us", movesLoadgen, us(t.p50("loadgen.op_single"))},
		{"loadgen.op_p999_us", "us", movesCluster, us(t.p999("loadgen.op"))},
		{"cluster.residual_share", "ratio", movesLoadgen, 1 - mix/us(t.p50("loadgen.op"))},

		{"threads.enter_exit_ns", "ns", movesThreads, t.p50("threads.enter_exit")},
		{"threads.wait_notify_us", "us", movesThreads, us(t.p50("threads.wait_notify"))},
		{"coro.resume_yield_ns", "ns", movesCoro, t.p50("coro.resume_yield")},
		{"coro.create_us", "us", movesCoro, us(t.p50("coro.create"))},
	}

	suites := map[core.Model]float64{}
	for _, name := range sortedKeys(courseParams) {
		for _, m := range core.AllModels {
			ms := t.p50("problems."+name+"."+m.String()) / 1e6
			suites[m] += ms
			rows = append(rows, layerRow{"problems." + name + "." + m.String() + "_ms", "ms", modelSuite(m), ms})
		}
	}
	for _, m := range core.AllModels {
		rows = append(rows, layerRow{modelSuite(m), "ms", "course-problems ops_per_s, latency_p50_us", suites[m]})
	}

	rows = append(rows, layerRow{"pseudocode.compile_us", "us", movesCompile, us(t.p50("pseudocode.compile"))})
	var states, transitions int64
	for i, ec := range corpusCases() {
		moves := movesExplore
		if i >= len(exploreCases) {
			moves = movesBigExplore
		}
		rows = append(rows, layerRow{ec.span() + ".states_per_s", "1/s", moves, t.statesPerSec(ec.span())})
		for _, s := range t.spans[ec.span()] {
			states += s.n
			transitions += s.aux
		}
	}
	tps := math.NaN()
	if states > 0 {
		tps = float64(transitions) / float64(states)
	}
	rows = append(rows, layerRow{"pseudocode.transitions_per_state", "ratio", movesExplore, tps})

	ops := float64(t.w1.ops)
	rows = append(rows,
		layerRow{"go.allocs_per_op", "count", movesRuntime, float64(t.w1.mem.mallocs) / ops},
		layerRow{"go.bytes_per_op", "bytes", movesRuntime, float64(t.w1.mem.bytes) / ops},
		layerRow{"go.gc_cycles", "count", movesRuntime, float64(t.w1.mem.gcCycles)},
		layerRow{"go.gc_pause_max_us", "us", movesCluster, float64(max(t.w1.mem.maxPause, t.w2.mem.maxPause)) / 1e3},
		layerRow{"go.gc_tail_share", "ratio", movesCluster, t.gcTailShare},
		layerRow{"bench.trace_overhead", "ratio", movesOverhead, t.w2.opsPerSec() / t.w1.opsPerSec()},
	)
	return rows
}

// runTraced is the per-layer breakdown. After one set-up it measures four
// windows: W1 the workload untraced; W2 the workload traced (their ratio is
// the tracing overhead); W3 a probe caller timing one call into each layer
// at a time while the workload's other caller keeps its load on; W4 the
// loadgen op from a single caller. It then runs the codec hooks, prints the
// per-layer table and writes the spans as a Perfetto file.
func runTraced(wl *workload, seed int64, d time.Duration) (result, error) {
	single := *wl
	single.setups = 1
	w, _, err := setupWorld(&single, seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	pw, err := newProbeWorld(w, seed)
	if err != nil {
		return result{}, fmt.Errorf("probe world: %w", err)
	}
	defer pw.close()
	all := []parts{w.parts(), pw.parts()}
	before, floodBefore := snapshot(all...), snapshot(pw.flood.parts())

	n := w.callers()
	lanes := []*lane{{id: 0, parent: -1}, {id: 1, parent: -1}}
	openAll := func(name string, ls []*lane) {
		for _, l := range ls {
			l.open(name)
		}
	}
	closeAll := func(ls []*lane) {
		for _, l := range ls {
			l.close()
		}
	}

	// W1 and W2 alternate in halves (untraced, traced, traced, untraced) so
	// drift over the run weighs on both alike.
	untraced := func(salt int64) window {
		return runWindow(d/8, opCallers(n, seed, salt, nil), repeatOp(w, n), w.midPass)
	}
	traced := func(salt int64) window {
		openAll("window.traced", lanes[:n])
		defer closeAll(lanes[:n])
		return runWindow(d/8, opCallers(n, seed, salt, lanes[:n]), repeatOp(w, n), w.midPass)
	}
	u1 := untraced(1)
	t1 := traced(2)
	t2 := traced(3)
	w1, w2 := u1.merge(untraced(4)), t1.merge(t2)

	// W3: the probe caller (id 0, driver node 0) plus the workload's
	// remaining caller, so at most two callers run.
	probe := newCaller(0, seed*1_000_003+5*101, lanes[0])
	loaded := newCaller(n-1, seed*1_000_003+5*101+1, lanes[1])
	openAll("window.probes", lanes)
	w3 := runWindow(d*2/5, []*caller{probe, loaded}, []func(*caller){pw.step, w.op}, pw.more)
	closeAll(lanes)

	openAll("window.single", lanes[:1])
	w4 := runWindow(d/10, []*caller{newCaller(0, seed*1_000_003+6*101, lanes[0])}, []func(*caller){pw.singleOp}, nil)
	closeAll(lanes[:1])
	openAll("window.codec", lanes[:1])
	codec := pw.codec(probe, 3, 20_000)
	closeAll(lanes[:1])

	failed := w1.failed + w2.failed + w3.failed + w4.failed + w.verify() + pw.verify() + pw.failed
	attempted := w1.ops + w2.ops + w3.ops + w4.ops + pw.calls + pw.told + pw.floodCaller.ops

	td := &traceData{
		spans: collectSpans(lanes),
		w1:    w1, w2: w2,
		delta:       snapshot(all...).minus(before),
		flood:       snapshot(pw.flood.parts()).minus(floodBefore),
		codec:       codec,
		gcTailShare: gcTailShare(lanes, w2.mem.pauses),
	}
	if pw.ownCl {
		td.fwdShare = ratio(probe.fwd, probe.ops)
	} else {
		td.fwdShare = ratio(w1.fwd, w1.ops)
	}
	rows := layerRows(td)

	printStamp(wl.name, seed, map[string]int64{
		"w1_ops": w1.ops, "w2_ops": w2.ops, "w3_ops": w3.ops, "w4_ops": w4.ops,
		"probe_calls": pw.calls, "spans": int64(len(lanes[0].spans) + len(lanes[1].spans)),
		"spans_dropped": lanes[0].dropped + lanes[1].dropped,
	})
	printTable(wl.name, td, rows)
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	path := filepath.Join(out, "trace-"+wl.name+".json")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	exported, total, err := writePerfetto(path, lanes)
	if err != nil {
		return result{}, fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("spans: %d recorded, %d written to %s (open at ui.perfetto.dev)\n", total, exported, path)

	res := result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metric{}}
	for _, r := range rows {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return result{}, fmt.Errorf("per-layer metric %s has no samples", r.name)
		}
		res.Metrics[r.name] = metric{r.value, r.unit}
	}
	return res, nil
}

// printTable prints the per-layer table, then the cluster op's latency
// attributed to the layers.
func printTable(workload string, t *traceData, rows []layerRow) {
	fmt.Printf("per-layer breakdown, workload %s (p50 of spans unless named p999)\n", workload)
	fmt.Printf("%-48s %14s %-6s  %s\n", "metric", "value", "unit", "should move")
	for _, r := range rows {
		fmt.Printf("%-48s %14.4f %-6s  %s\n", r.name, r.value, r.unit, r.moves)
	}
	v := map[string]float64{}
	for _, r := range rows {
		v[r.name] = r.value
	}
	opP50 := t.p50("loadgen.op") / 1e3
	fmt.Printf("loadgen op p50 %.2fus = %.2f forwarded x %.2fus [remote.ask %.2f + cluster.forward %.2f]"+
		" + %.2f owner-local x %.2fus [actors.ask_local %.2f (spawn_stop %.2f) + cluster.route %.2f]"+
		" + residual %.1f%%\n",
		opP50, v["cluster.forward_share"], v["cluster.ask_forwarded_us"], v["remote.ask_us"], v["cluster.forward_us"],
		1-v["cluster.forward_share"], v["cluster.ask_owner_local_us"], v["actors.ask_local_us"], v["actors.spawn_stop_us"],
		v["cluster.route_us"], 100*v["cluster.residual_share"])
	var p999 []string
	for _, k := range []string{"loadgen.op_p999_us", "cluster.ask_forwarded_p999_us", "cluster.ask_owner_local_p999_us",
		"remote.ask_p999_us", "actors.ask_local_p999_us", "go.gc_pause_max_us"} {
		p999 = append(p999, fmt.Sprintf("%s %.1f", strings.TrimSuffix(k, "_us"), v[k]))
	}
	fmt.Printf("tail (us): %s; %.0f%% of the traced windows' p999 ops overlap a GC pause\n",
		strings.Join(p999, ", "), 100*v["go.gc_tail_share"])
	fmt.Printf("bench.trace_overhead %.3f (traced %.0f/s vs untraced %.0f ops/s)\n",
		v["bench.trace_overhead"], t.w2.opsPerSec(), t.w1.opsPerSec())
}
