package remote

import (
	"runtime"
	"time"
)

// Benchmark hooks. The streaming sessions are an unexported implementation
// detail of the link layer — one per connection direction — so bench
// harnesses get these two narrow, steady-state measurement entry points
// instead of the sessions themselves.

// BenchStreamEncode encodes w through one warm streaming session n times and
// returns (ns/op, allocs/op, bytes/frame). The first frame — type
// descriptors, buffer growth — is excluded, as it is on a live link.
func BenchStreamEncode(n int, w *WireEnvelope) (nsOp, allocsOp, bytesFrame float64) {
	enc := newEncSession()
	var buf []byte
	var err error
	if buf, err = enc.appendFrame(buf[:0], w); err != nil {
		panic(err)
	}
	bytesFrame = float64(len(buf))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if buf, err = enc.appendFrame(buf[:0], w); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n),
		bytesFrame
}

// BenchStreamDecode decodes a steady-state frame of w through one warm
// streaming decode session n times and returns (ns/op, allocs/op).
func BenchStreamDecode(n int, w *WireEnvelope) (nsOp, allocsOp float64) {
	enc, dec := newEncSession(), newDecSession()
	// First frame carries descriptors and may cross a session only once;
	// decode it, then measure on a descriptor-free follow-up.
	frame, err := enc.appendFrame(nil, w)
	if err != nil {
		panic(err)
	}
	var out WireEnvelope
	if err := dec.decodeFrame(frame, &out); err != nil {
		panic(err)
	}
	if frame, err = enc.appendFrame(frame[:0], w); err != nil {
		panic(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := dec.decodeFrame(frame, &out); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}
