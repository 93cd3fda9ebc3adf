package cluster

import "repro/internal/remote"

// Introspection is one node's full cluster view, snapshotted for the
// /debug/cluster endpoint (internal/obs): who this node believes is in the
// ring, how the shard space maps onto them, what it is hosting, and the
// health of the links it would forward over. Everything is JSON-tagged
// because the sole consumer is an HTTP debug surface; nothing here is a
// stable machine API.
type Introspection struct {
	Addr    string       `json:"addr"`
	Epoch   uint64       `json:"epoch"`
	Quorate bool         `json:"quorate"`
	Members []MemberInfo `json:"members"`
	// Shards is the full shard map under this node's view; entries whose
	// owner is unknown (no live candidate) have an empty owner.
	Shards       []ShardInfo       `json:"shards"`
	OwnedShards  int               `json:"owned_shards"`
	ActiveGrains []string          `json:"active_grains"`
	Parked       int               `json:"parked"`
	Counters     Counters          `json:"counters"`
	Links        []remote.LinkInfo `json:"links"`
}

// MemberInfo is one membership-table row, with the state rendered for
// humans.
type MemberInfo struct {
	Addr  string `json:"addr"`
	Inc   uint64 `json:"inc"`
	State string `json:"state"`
}

// ShardInfo is one shard's placement under this node's view.
type ShardInfo struct {
	Shard int    `json:"shard"`
	Owner string `json:"owner,omitempty"`
	State string `json:"state,omitempty"` // owner's membership state
	Self  bool   `json:"self,omitempty"`  // owned by this node
}

// Introspect snapshots the node's cluster state. Consistency is per-section
// (membership is one published view; grains and links are each snapshotted
// under their own lock), which is exactly what a debug endpoint scraped
// mid-rebalance can promise.
func (c *Cluster) Introspect() Introspection {
	v := c.mem.load()
	out := Introspection{
		Addr:         c.addr,
		Epoch:        v.epoch,
		Quorate:      v.quorate,
		Members:      make([]MemberInfo, 0, len(v.members)),
		Shards:       make([]ShardInfo, 0, c.cfg.Shards),
		ActiveGrains: c.ActiveGrains(),
		Counters:     c.CounterSnapshot(),
		Links:        c.node.Links(),
	}
	for _, m := range v.members {
		out.Members = append(out.Members, MemberInfo{Addr: m.Addr, Inc: m.Inc, State: m.State.String()})
	}
	for shard, sv := range v.shards {
		si := ShardInfo{Shard: shard}
		if sv.owner != "" {
			si.Owner, si.State, si.Self = sv.owner, sv.state.String(), sv.mine
			if si.Self {
				out.OwnedShards++
			}
		}
		out.Shards = append(out.Shards, si)
	}
	c.gmu.RLock()
	for _, q := range c.pending {
		out.Parked += len(q)
	}
	c.gmu.RUnlock()
	return out
}
