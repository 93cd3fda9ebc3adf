package actors

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Obs is the optional hot-path instrumentation for a System: two striped
// latency histograms fed with sampled message deliveries. The zero-cost
// contract is that a nil Config.Obs keeps the send and process paths
// exactly as fast as before instrumentation existed — the only residue is
// one predictable nil check per message (the histograms themselves are
// also nil-safe, so a partially filled Obs works too).
//
// With Obs set, the marginal per-message cost is deliberately tiny: the
// send-side sampling decision rides the reservation counter the mailbox
// already maintains, the dequeue-side tick is a plain per-actor field, and
// only the one-in-Sample sampled messages pay clock reads. The exact
// conservation ledger is the one per-message cost that cannot be sampled
// away, so it is a separate opt-in (Conserve).
type Obs struct {
	// QueueWait is the mailbox residency time of each message: send-side
	// enqueue to the moment the actor dequeues it. Includes scheduling
	// delay: the actor's wait on the run queue for a worker, and the
	// messages ahead of it in its own batch.
	QueueWait *metrics.LatencyHistogram
	// Handler is the behavior execution time of each message that reaches
	// a behavior (injected panics skip the behavior and are not timed).
	Handler *metrics.LatencyHistogram
	// Sample is the latency sampling rate: one in Sample messages (per
	// mailbox) pays the clock reads that feed QueueWait and Handler.
	// Rounded up to a power of two; 0 means the default of 64, which keeps
	// instrumented Tell within the documented overhead bound on machines
	// where a clock read costs tens of nanoseconds. Set 1 to time every
	// message (tests, latency-focused runs). Fixed at NewSystem.
	Sample int
	// Conserve additionally maintains the exact message conservation
	// ledger (MessagesEnqueued / MessagesDequeued / MessagesDrained and
	// CheckConservation). Unlike the sampled latencies it counts every
	// message — two striped atomic adds per delivery — which is exactly
	// the cross-core traffic the ring mailbox exists to avoid, so the
	// ledger only runs when someone asks for it (the conformance suite,
	// debug runs).
	Conserve bool
}

// NewObs returns an Obs whose histograms are registered in reg as
// prefix.mailbox.wait_ns and prefix.handler_ns — the metric naming scheme
// from docs/OBSERVABILITY.md. Conserve is left off; set it on the returned
// Obs when exact message accounting is worth two atomic adds per message.
// A nil reg returns an Obs with nil histograms (no latencies recorded).
func NewObs(reg *metrics.Registry, prefix string) *Obs {
	if reg == nil {
		return &Obs{}
	}
	return &Obs{
		QueueWait: reg.Histogram(prefix + ".mailbox.wait_ns"),
		Handler:   reg.Histogram(prefix + ".handler_ns"),
	}
}

// defaultObs is the process-wide fallback consulted by NewSystem when
// Config.Obs is nil; see SetDefaultObs.
var defaultObs atomic.Pointer[Obs]

// SetDefaultObs installs a process-wide Obs adopted by every subsequent
// NewSystem whose Config.Obs is nil. It exists for the CLI binaries'
// -metrics flags, whose workloads construct their systems internally where
// no flag can reach; libraries and tests should pass Config.Obs explicitly.
// Call it before the systems it should observe are created; passing nil
// restores the uninstrumented default.
func SetDefaultObs(o *Obs) { defaultObs.Store(o) }

// defaultRecorder is the process-wide fallback consulted by NewSystem when
// Config.Recorder is nil; see SetDefaultRecorder.
var defaultRecorder atomic.Pointer[trace.Recorder]

// SetDefaultRecorder installs a process-wide trace recorder adopted by every
// subsequent NewSystem whose Config.Recorder is nil. Like SetDefaultObs it
// exists for the CLI binaries (and the detector conformance sweep), whose
// workloads construct their systems internally where no flag can reach;
// libraries and tests should pass Config.Recorder explicitly. Call it before
// the systems it should trace are created; passing nil restores the
// untraced default.
func SetDefaultRecorder(r *trace.Recorder) { defaultRecorder.Store(r) }

// defaultTracer is the process-wide fallback consulted by NewSystem when
// Config.Tracer is nil; see SetDefaultTracer.
var defaultTracer atomic.Pointer[trace.Tracer]

// SetDefaultTracer installs a process-wide distributed tracer adopted by
// every subsequent NewSystem whose Config.Tracer is nil. Like SetDefaultObs
// it exists for the CLI binaries' flags, whose workloads construct their
// systems internally; libraries and tests should pass Config.Tracer
// explicitly. Call it before the systems it should trace are created;
// passing nil restores the untraced default.
func SetDefaultTracer(t *trace.Tracer) { defaultTracer.Store(t) }

// MessagesEnqueued returns the number of non-control messages accepted into
// local mailboxes. Zero unless the conservation ledger (Obs.Conserve) is on.
func (s *System) MessagesEnqueued() int64 { return s.enqueued.Load() }

// MessagesDequeued returns the number of non-control messages dequeued and
// handed to processing (including ones that then panicked). Zero unless the
// conservation ledger (Obs.Conserve) is on.
func (s *System) MessagesDequeued() int64 { return s.dequeued.Load() }

// MessagesDrained returns the number of non-control messages that were
// enqueued but never processed because their actor terminated: the
// close-time mailbox drain plus the already-dequeued remainder of an
// exiting actor's batch. All of them were also deadlettered. Zero unless
// the conservation ledger (Obs.Conserve) is on.
func (s *System) MessagesDrained() int64 { return s.drained.Load() }

// defaultObsSample is the latency sampling rate when Obs.Sample is unset.
const defaultObsSample = 64

// sampleRate turns Obs.Sample into the power-of-two rate handed to every
// mailbox (and whose mask gates the dequeue-side handler tick).
func (o *Obs) sampleRate() uint64 {
	n := o.Sample
	if n <= 0 {
		n = defaultObsSample
	}
	rate := uint64(1)
	for rate < uint64(n) {
		rate <<= 1
	}
	return rate
}

// CheckConservation verifies the message conservation law the runtime
// promises: every message accepted into a mailbox is either processed or
// drained to deadletters, none invented, none lost —
//
//	enqueued == dequeued + drained
//
// Meaningful once the system has quiesced (after Shutdown, or when no
// sends are in flight). Requires Config.Obs with Conserve set; returns an
// error otherwise.
func (s *System) CheckConservation() error {
	if !s.conserve {
		return errors.New("actors: conservation accounting requires Config.Obs with Conserve")
	}
	enq, deq, dr := s.enqueued.Load(), s.dequeued.Load(), s.drained.Load()
	if enq != deq+dr {
		return fmt.Errorf("actors: message conservation violated: enqueued=%d != dequeued=%d + drained=%d",
			enq, deq, dr)
	}
	return nil
}
