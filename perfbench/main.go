// Command perfbench is the repository's one performance benchmark. It is a
// client of the repository: it builds the system under test through the
// public functions of internal/{actors,remote,cluster,threads,coro,core,
// problems/registry,pseudocode}, drives it from at most two closed-loop
// caller goroutines, checks every output, and times only its own calls into
// those packages.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: cluster-ask, course-problems, explore-corpus (see
// BENCHMARK.json for why each exists). With --trace 0 the last line of
// standard output is a JSON object holding the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run, which also
// prints the per-layer table and writes its spans as a Perfetto file.
// perfbench/run.sh builds the binary from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// world is one set-up instance of a workload: the system under test plus
// the generated inputs its callers draw from.
type world interface {
	// callers is how many closed-loop callers drive the workload (1 or 2).
	callers() int
	// prepare does the untimed work between set-up and measurement, such as
	// computing the reference outputs the op checks against.
	prepare() error
	// op runs one closed-loop operation for c, checks its output, and
	// records ops, failures, latency samples and spans on c.
	op(c *caller)
	// midPass reports whether the op sequence is inside a pass over a fixed
	// mix of cases; measurement windows end only between passes, so every
	// window weighs the same mix.
	midPass() bool
	// verify reports ops lost outside any op's own check (deadletters,
	// sheds), after a measurement window.
	verify() int64
	// parts lists the layers' handles for counter snapshots.
	parts() parts
	// close tears the world down and waits for its goroutines.
	close()
}

// workload names a world constructor and how it is measured.
type workload struct {
	name   string
	unit   string // what one op is, for the human-readable summary
	setups int    // set-ups per run; setup_s is their median
	setup  func(seed int64) (world, error)
}

var workloads = []workload{
	{"cluster-ask", "AskRetry", 5, func(seed int64) (world, error) { return newClusterWorld(clusterGrains, seed, nil) }},
	{"course-problems", "problem run", 51, func(seed int64) (world, error) { return newCourseWorld(seed) }},
	{"explore-corpus", "state", 2001, func(seed int64) (world, error) { return newExploreWorld(seed) }},
}

// caller is one closed-loop driver goroutine's state for one window. Only
// that goroutine touches it while the window runs.
type caller struct {
	id     int // the workload's caller index (selects a driver node)
	rng    *rand.Rand
	seq    int64 // request ids issued
	ops    int64
	failed int64
	fwd    int64 // cluster ops whose grain lives on another node
	lat    latencies
	lane   *lane // nil when tracing is off
}

func newCaller(id int, seed int64, l *lane) *caller {
	return &caller{id: id, rng: rand.New(rand.NewSource(seed)), lat: latencies{}, lane: l}
}

// span records a call into a layer when tracing is on.
func (c *caller) span(name string, start, end, n, aux int64) {
	if c.lane != nil {
		c.lane.add(name, start, end, n, aux)
	}
}

// window is the outcome of one measurement window.
type window struct {
	wall, cpu   time.Duration
	ops, failed int64
	fwd         int64
	lat         latencies
	mem         memDelta
}

func (w window) opsPerSec() float64 { return float64(w.ops) / w.wall.Seconds() }

// merge returns w and o counted as one window.
func (w window) merge(o window) window {
	w.wall += o.wall
	w.cpu += o.cpu
	w.ops += o.ops
	w.failed += o.failed
	w.fwd += o.fwd
	if w.lat == nil {
		w.lat = latencies{}
	}
	w.lat.merge(o.lat)
	w.mem.mallocs += o.mem.mallocs
	w.mem.bytes += o.mem.bytes
	w.mem.gcCycles += o.mem.gcCycles
	w.mem.maxPause = max(w.mem.maxPause, o.mem.maxPause)
	w.mem.pauses = append(w.mem.pauses, o.mem.pauses...)
	return w
}

// runWindow runs fns[i] in a closed loop on cs[i], one goroutine each, and
// returns when all have stopped. cs[0] leads: once d has passed and more
// (when non-nil) reports false, it stops the others.
func runWindow(d time.Duration, cs []*caller, fns []func(*caller), more func() bool) window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	ms0 := memSnapshot()
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, fn := cs[i], fns[i]
			for !stop.Load() {
				fn(c)
				if i == 0 && time.Now().After(deadline) && (more == nil || !more()) {
					stop.Store(true)
				}
			}
		}(i)
	}
	wg.Wait()
	w := window{wall: time.Since(t0), cpu: cpuTime() - cpu0, lat: latencies{}}
	ms1 := memSnapshot()
	w.mem = memBetween(&ms0, &ms1)
	for _, c := range cs {
		w.ops += c.ops
		w.failed += c.failed
		w.fwd += c.fwd
		w.lat.merge(c.lat)
	}
	return w
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: cluster-ask, course-problems, explore-corpus")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(wl, *seed, d)
	} else {
		res, err = runPlain(wl, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// setupWorld builds the workload wl.setups times, one at a time, keeps the
// last world, and returns it with the median set-up time.
func setupWorld(wl *workload, seed int64) (world, float64, error) {
	var times []float64
	var w world
	for i := 0; i < wl.setups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = wl.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	if err := w.prepare(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("prepare: %w", err)
	}
	return w, median(times), nil
}

// opCallers returns n fresh callers for a window, seeded from seed and salt
// so every window draws its own reproducible inputs.
func opCallers(n int, seed, salt int64, lanes []*lane) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		var l *lane
		if lanes != nil {
			l = lanes[i]
		}
		cs[i] = newCaller(i, seed*1_000_003+salt*101+int64(i), l)
	}
	return cs
}

func repeatOp(w world, n int) []func(*caller) {
	fns := make([]func(*caller), n)
	for i := range fns {
		fns[i] = w.op
	}
	return fns
}

// subWindows is how many consecutive windows a run's measurement is split
// into. Throughput and CPU cost are the medians of their per-window values,
// so a burst of interference from outside the benchmark moves one window,
// not the result. Latency percentiles are taken over every sample (see
// latencies.quantile for workloads that mix cases).
const subWindows = 10

// runPlain is the end-to-end measurement: tracing off, every caller running
// the workload's op for d, split into subWindows windows.
func runPlain(wl *workload, seed int64, d time.Duration) (result, error) {
	w, setupS, err := setupWorld(wl, seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	n := w.callers()
	var total window
	var rate, cpu []float64
	for k := 0; k < subWindows; k++ {
		win := runWindow(d/subWindows, opCallers(n, seed, int64(1+k), nil), repeatOp(w, n), w.midPass)
		rate = append(rate, win.opsPerSec())
		cpu = append(cpu, float64(win.cpu)/1e3/float64(max(win.ops, 1)))
		fmt.Printf("%s window %d: %.1f ops/s, %.3f cpu us/op, %d ops in %.2fs\n",
			wl.name, k, rate[k], cpu[k], win.ops, win.wall.Seconds())
		total = total.merge(win)
	}
	total.failed += w.verify()
	lat := total.lat
	p50, p99, p999 := lat.quantile(0.5), lat.quantile(0.99), lat.quantile(0.999)

	attempted := max(total.ops, 1)
	printStamp(wl.name, seed, map[string]int64{
		"setups": int64(wl.setups), "windows": subWindows, "ops": total.ops,
		"latency_samples": int64(lat.count()), "latency_cases": int64(len(lat)), "callers": int64(n),
	})
	fmt.Printf("%s: %d ops (%s) in %.2fs from %d closed-loop callers; error_rate %.6f (%d failed)\n",
		wl.name, total.ops, wl.unit, total.wall.Seconds(), n, float64(total.failed)/float64(attempted), total.failed)
	fmt.Printf("%s: latency p50 %.2fus p99 %.2fus p999 %.2fus over %d samples in %d cases\n",
		wl.name, p50, p99, p999, lat.count(), len(lat))

	return result{
		Correct:   total.failed == 0,
		Attempted: attempted,
		Failed:    total.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {median(rate), "1/s"},
			"cpu_us_per_op":   {median(cpu), "us"},
			"latency_p50_us":  {p50, "us"},
			"latency_p99_us":  {p99, "us"},
			"latency_p999_us": {p999, "us"},
		},
	}, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
