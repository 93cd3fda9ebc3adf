package cluster

import (
	"fmt"

	"repro/internal/metrics"
)

// RegisterMetrics exposes the cluster layer's state as gauges named
// prefix.cluster.<metric>, alongside the wire node's own gauges (call
// Node().RegisterMetrics separately, or with the same registry/prefix).
// It also arms the handoff latency histogram at
// prefix.cluster.handoff_ns: one observation per shard handoff, measured
// from the first message parked against the moving shard to the flush that
// redelivered the backlog under the new owner.
func (c *Cluster) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix+".cluster.members_alive", func() int64 {
		alive, _, _, _ := c.mem.counts()
		return int64(alive)
	})
	reg.Gauge(prefix+".cluster.members_suspect", func() int64 {
		_, suspect, _, _ := c.mem.counts()
		return int64(suspect)
	})
	reg.Gauge(prefix+".cluster.members_dead", func() int64 {
		_, _, dead, _ := c.mem.counts()
		return int64(dead)
	})
	reg.Gauge(prefix+".cluster.members_known", func() int64 {
		_, _, _, total := c.mem.counts()
		return int64(total)
	})
	reg.Gauge(prefix+".cluster.epoch", func() int64 { return int64(c.mem.epochNow()) })
	reg.Gauge(prefix+".cluster.quorate", func() int64 {
		if c.mem.quorate() {
			return 1
		}
		return 0
	})
	reg.Gauge(prefix+".cluster.shards_owned", func() int64 {
		return int64(len(c.mem.ownedShards()))
	})
	reg.Gauge(prefix+".cluster.grains_active", func() int64 {
		c.gmu.Lock()
		defer c.gmu.Unlock()
		return int64(len(c.grains))
	})
	reg.Gauge(prefix+".cluster.parked_now", func() int64 {
		c.gmu.Lock()
		defer c.gmu.Unlock()
		var n int64
		for _, q := range c.pending {
			n += int64(len(q))
		}
		return n
	})
	reg.Gauge(prefix+".cluster.activations", c.activations.Load)
	reg.Gauge(prefix+".cluster.passivations", c.passivations.Load)
	reg.Gauge(prefix+".cluster.handoffs_out", c.handoffsOut.Load)
	reg.Gauge(prefix+".cluster.fenced_drops", c.fencedDrops.Load)
	reg.Gauge(prefix+".cluster.forwards", c.forwards.Load)
	reg.Gauge(prefix+".cluster.forward_drops", c.forwardDrops.Load)
	reg.Gauge(prefix+".cluster.parked", c.parkedTotal.Load)
	reg.Gauge(prefix+".cluster.parked_flushed", c.parkedFlush.Load)
	reg.Gauge(prefix+".cluster.parked_shed", c.parkedShed.Load)
	reg.Gauge(prefix+".cluster.inbound_shed", c.inboundShed.Load)
	// Per-shard ownership: 1 where this node's view assigns the shard here.
	// One gauge per shard keeps the exposition greppable per shard ID, which
	// is what a rebalance dashboard diffs across nodes.
	for s := 0; s < c.cfg.Shards; s++ {
		shard := s
		reg.Gauge(fmt.Sprintf("%s.cluster.shard.%d.owned", prefix, shard), func() int64 {
			if c.mem.load().shards[shard].mine {
				return 1
			}
			return 0
		})
	}
	c.handoffHist.Store(reg.Histogram(prefix + ".cluster.handoff_ns"))
}

// Counters is a snapshot of the cluster's lifecycle counters, for tests and
// the load harness.
type Counters struct {
	Activations  int64
	Passivations int64
	HandoffsOut  int64
	FencedDrops  int64
	Forwards     int64
	ForwardDrops int64
	Parked       int64
	ParkedFlush  int64
	ParkedShed   int64
	// InboundShed counts forwarded messages shed at a full (or stopped)
	// grain mailbox: the wire reader that routes them never waits.
	InboundShed int64
}

// CounterSnapshot returns the current lifecycle counters.
func (c *Cluster) CounterSnapshot() Counters {
	return Counters{
		Activations:  c.activations.Load(),
		Passivations: c.passivations.Load(),
		HandoffsOut:  c.handoffsOut.Load(),
		FencedDrops:  c.fencedDrops.Load(),
		Forwards:     c.forwards.Load(),
		ForwardDrops: c.forwardDrops.Load(),
		Parked:       c.parkedTotal.Load(),
		ParkedFlush:  c.parkedFlush.Load(),
		ParkedShed:   c.parkedShed.Load(),
		InboundShed:  c.inboundShed.Load(),
	}
}
