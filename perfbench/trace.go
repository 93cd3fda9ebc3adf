package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// epoch anchors every span timestamp (monotonic nanoseconds since start).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, recorded from the benchmark's side
// of the call: name, start, end and the span that caused it (the window the
// call ran in). n counts the units of work the call did, so duration/n is
// the per-unit cost of batched probes; aux is a second count (transitions,
// for explorer spans).
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span in the same lane; -1 for none
	n, aux     int64
}

// maxSpansPerLane bounds a lane's in-memory span buffer (about 64 MiB per
// lane at the cap); spans past it are counted, not kept.
const maxSpansPerLane = 1 << 20

// maxExportPerName bounds how many spans of one name a lane writes to the
// Perfetto file: every layer stays visible and the file stays loadable in a
// browser.
const maxExportPerName = 5_000

// lane is one goroutine's span buffer. Only its owner appends to it.
type lane struct {
	id      int
	spans   []span
	parent  int32
	dropped int64
}

// open starts an enclosing span (a measurement window); later spans in the
// lane name it as their parent until close.
func (l *lane) open(name string) {
	l.spans = append(l.spans, span{name: name, start: now(), parent: -1})
	l.parent = int32(len(l.spans) - 1)
}

func (l *lane) close() {
	if l.parent >= 0 {
		l.spans[l.parent].end = now()
		l.parent = -1
	}
}

func (l *lane) add(name string, start, end, n, aux int64) {
	if len(l.spans) >= maxSpansPerLane {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: l.parent, n: n, aux: aux})
}

// spanSet indexes finished spans by name for the per-layer table.
type spanSet map[string][]span

func collectSpans(lanes []*lane) spanSet {
	set := spanSet{}
	for _, l := range lanes {
		for _, s := range l.spans {
			if s.parent >= 0 { // windows are structure, not layer calls
				set[s.name] = append(set[s.name], s)
			}
		}
	}
	return set
}

// perUnit returns the sorted per-unit durations (ns) of the named spans.
func (s spanSet) perUnit(name string) []float64 {
	out := make([]float64, 0, len(s[name]))
	for _, sp := range s[name] {
		n := sp.n
		if n < 1 {
			n = 1
		}
		out = append(out, float64(sp.end-sp.start)/float64(n))
	}
	sort.Float64s(out)
	return out
}

// writePerfetto writes the lanes as Chrome trace-event JSON, which
// ui.perfetto.dev loads directly: one thread per lane, one complete ("X")
// event per span, with the span's id, parent id and work count as args.
func writePerfetto(path string, lanes []*lane) (exported, total int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range lanes {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"caller %d"}}`, l.id, l.id)
		total += len(l.spans)
		written := map[string]int{}
		for i, s := range l.spans {
			if s.parent >= 0 && written[s.name] >= maxExportPerName {
				continue
			}
			written[s.name]++
			cat := s.name
			if j := strings.IndexByte(cat, '.'); j > 0 {
				cat = cat[:j]
			}
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(l.id)<<32 | int64(s.parent)
			}
			fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"n":%d}}`,
				s.name, cat, l.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3,
				int64(l.id)<<32|int64(i), parent, s.n)
			exported++
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return exported, total, f.Close()
}
