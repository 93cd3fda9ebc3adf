package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (getrusage). It
// counts every goroutine of the system under test, not just the callers.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of sorted (nearest rank), or NaN when
// sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value (mean of the two
// middle values for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencies holds op latency samples in ns, grouped by the case the op ran.
// A workload whose ops are all alike uses the one case "".
type latencies map[string][]int64

func (l latencies) add(cs string, ns int64) { l[cs] = append(l[cs], ns) }

func (l latencies) merge(o latencies) {
	for cs, ns := range o {
		l[cs] = append(l[cs], ns...)
	}
}

func (l latencies) count() int {
	n := 0
	for _, ns := range l {
		n += len(ns)
	}
	return n
}

// quantile returns the q-quantile in µs of a typical case: the geometric
// mean of the cases' medians, plus the q-quantile over every sample of its
// delay beyond its own case's median. With one case that is the plain
// quantile. With a mix of cases whose latencies differ by up to 70×, the
// median of the pooled samples falls in the gap between two cases, where a
// small shift of one case moves it far; a per-case p999 would rest on a few
// samples, and a delay taken relative to the median would let the fastest
// cases' scheduling hiccups make the tail.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	logSum := 0.0
	var excess []float64
	for _, ns := range l {
		us := sortedMicros(ns)
		med := quantile(us, 0.5)
		logSum += math.Log(med)
		for _, v := range us {
			excess = append(excess, v-med)
		}
	}
	sort.Float64s(excess)
	return math.Exp(logSum/float64(len(l))) + quantile(excess, q)
}

// sortedMicros converts nanosecond samples to sorted microseconds.
func sortedMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// memDelta is the Go runtime's allocation and GC activity over a window.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	maxPause       time.Duration // longest stop-the-world pause that began in the window
	// pauses are the window's GC cycles as [start, end] in ns since epoch:
	// a cycle's summed stop-the-world time, ending where its last pause ended.
	pauses [][2]int64
}

// memSnapshot reads the runtime's memory statistics.
func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memBetween(before, after *runtime.MemStats) memDelta {
	d := memDelta{
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
	}
	// PauseNs is a ring of the last 256 pauses; cycles beyond that are lost.
	n := d.gcCycles
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		j := (after.NumGC - i + 255) % 256
		p := time.Duration(after.PauseNs[j])
		if p > d.maxPause {
			d.maxPause = p
		}
		end := int64(after.PauseEnd[j]) - epoch.UnixNano()
		d.pauses = append(d.pauses, [2]int64{end - int64(p), end})
	}
	return d
}
