package actors

import "repro/internal/metrics"

// RegisterMetrics exposes the system's counters as gauges in reg, each named
// prefix.<metric>. This is how mailbox and deadletter accounting becomes
// observable instead of log-only: the deadletter total is broken out by
// DeadLetterKind, so a dashboard (or a test) can tell remote-unreachable
// deadletters from closed-mailbox drains or injected drops.
//
// Gauges read the live counters at Snapshot time; registering is cheap and
// does not add work to the message hot path.
func (s *System) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix+".processed", s.Processed)
	reg.Gauge(prefix+".panics", s.Panics)
	reg.Gauge(prefix+".restarts", s.Restarts)
	reg.Gauge(prefix+".faults.injected", s.FaultsInjected)
	reg.Gauge(prefix+".deadletters", s.DeadLetters)
	for k := DLNoRecipient; int(k) < dlKinds; k++ {
		k := k
		reg.Gauge(prefix+".deadletters."+k.String(), func() int64 {
			return s.DeadLettersOf(k)
		})
	}
	reg.Gauge(prefix+".mailbox.backlog", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var total int64
		for _, c := range s.actors {
			total += int64(c.mbox.size())
		}
		return total
	})
	reg.Gauge(prefix+".actors", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.actors))
	})
	reg.Gauge(prefix+".runqueue.depth", func() int64 {
		return int64(s.runq.depth())
	})
	// Conservation ledger (all zero unless Config.Obs is set; the latency
	// histograms themselves live in the registry NewObs was built with).
	reg.Gauge(prefix+".messages.enqueued", s.MessagesEnqueued)
	reg.Gauge(prefix+".messages.dequeued", s.MessagesDequeued)
	reg.Gauge(prefix+".messages.drained", s.MessagesDrained)
}
