package main

import (
	"fmt"
	"time"

	"repro/internal/actors"
	"repro/internal/cluster"
	"repro/internal/remote"
)

// echoReq / echoRep are the request and reply of every ask the benchmark
// makes: the reply must carry the request's id.
type echoReq struct{ ID int64 }
type echoRep struct{ ID int64 }

func init() {
	remote.RegisterType(echoReq{})
	remote.RegisterType(echoRep{})
	remote.RegisterType(floodMsg{})
}

// echoBehavior answers each echoReq with its id.
func echoBehavior(ctx *actors.Context, msg any) {
	if r, ok := msg.(echoReq); ok {
		ctx.Reply(echoRep{ID: r.ID})
	}
}

// echoed reports whether reply answers request id.
func echoed(reply any, id int64) bool {
	r, ok := reply.(echoRep)
	return ok && r.ID == id
}

const (
	clusterNodes  = 4
	clusterShards = 128
	clusterGrains = 4096
	askTimeout    = 2 * time.Second
)

// clusterWorld is 4 in-process cluster nodes over one MemNetwork with every
// grain activated. Nodes 0 and 1 are the driver nodes callers ask through.
type clusterWorld struct {
	nodes  []*cluster.Cluster
	grains int
	// Per driver node: a Ref per grain, whether the grain lives on another
	// node, and the grains it owns / does not own.
	refs        [2][]*actors.Ref
	remoteOwned [2][]bool
	localIdx    [2][]int
	remoteIdx   [2][]int
	names       []string
	rc          actors.RetryConfig
	// grain rewrites each reply before it is sent; tests corrupt replies
	// through it.
	grain func(echoRep) echoRep
}

// newClusterWorld builds the cluster; rewrite, when non-nil, is applied to
// every grain reply.
func newClusterWorld(grains int, seed int64, rewrite func(echoRep) echoRep) (*clusterWorld, error) {
	w := &clusterWorld{grains: grains, grain: rewrite}
	w.rc = actors.RetryConfig{Attempts: 3, Timeout: askTimeout, Backoff: time.Millisecond, Jitter: 0.2, Seed: seed}
	net := remote.NewMemNetwork()
	addrs := make([]string, clusterNodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d", i)
	}
	factory := func(string) actors.Behavior {
		return func(ctx *actors.Context, msg any) {
			if r, ok := msg.(echoReq); ok {
				rep := echoRep{ID: r.ID}
				if w.grain != nil {
					rep = w.grain(rep)
				}
				ctx.Reply(rep)
			}
		}
	}
	for i, addr := range addrs {
		c, err := cluster.New(cluster.Config{
			ListenAddr:        addr,
			Transport:         net.Endpoint(addr),
			Seeds:             addrs,
			Shards:            clusterShards,
			Grain:             factory,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  time.Second,
			SuspectAfter:      2 * time.Second,
			ActivationGrace:   10 * time.Millisecond,
			Seed:              seed + int64(i),
		})
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, c)
	}
	if err := waitConverged(w.nodes, 10*time.Second); err != nil {
		w.close()
		return nil, err
	}
	w.names = make([]string, grains)
	for g := range w.names {
		w.names[g] = fmt.Sprintf("grain-%d", g)
	}
	for d := 0; d < 2; d++ {
		drv := w.nodes[d]
		w.refs[d] = make([]*actors.Ref, grains)
		w.remoteOwned[d] = make([]bool, grains)
		for g, name := range w.names {
			w.refs[d][g] = drv.RefFor(name)
			owner, ok := drv.OwnerOf(name)
			if !ok {
				w.close()
				return nil, fmt.Errorf("no owner for %s", name)
			}
			if owner == drv.Addr() {
				w.localIdx[d] = append(w.localIdx[d], g)
			} else {
				w.remoteOwned[d][g] = true
				w.remoteIdx[d] = append(w.remoteIdx[d], g)
			}
		}
		if len(w.localIdx[d]) == 0 || len(w.remoteIdx[d]) == 0 {
			w.close()
			return nil, fmt.Errorf("driver %d owns all or none of the grains", d)
		}
	}
	// Activate every grain, so the measurement sees no first-message cost.
	for g := range w.names {
		id := int64(-1 - g)
		rep, err := actors.AskRetry(w.nodes[0].System(), w.refs[0][g], echoReq{ID: id}, w.rc)
		if err == nil && !echoed(rep, id) && w.grain == nil {
			err = fmt.Errorf("bad reply %#v", rep)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("activating %s: %w", w.names[g], err)
		}
	}
	return w, nil
}

// waitConverged blocks until every node sees the full membership alive.
func waitConverged(nodes []*cluster.Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, c := range nodes {
			ms, _ := c.Members()
			alive := 0
			for _, m := range ms {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			converged = converged && alive == len(nodes)
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *clusterWorld) callers() int   { return 2 }
func (w *clusterWorld) prepare() error { return nil }
func (w *clusterWorld) verify() int64  { return 0 }
func (w *clusterWorld) midPass() bool  { return false }

// op is the load generator's op: AskRetry of a seeded-uniform grain through
// the caller's driver node, checked for the echoed request id.
func (w *clusterWorld) op(c *caller) {
	w.ask(c, c.id%2, c.rng.Intn(w.grains), "loadgen.op")
}

// ask runs one loadgen op on grain g from driver d under the span name.
func (w *clusterWorld) ask(c *caller, d, g int, name string) {
	c.seq++
	id := int64(c.id)<<40 | c.seq
	start := now()
	rep, err := actors.AskRetry(w.nodes[d].System(), w.refs[d][g], echoReq{ID: id}, w.rc)
	end := now()
	c.lat.add("", end-start)
	c.ops++
	if w.remoteOwned[d][g] {
		c.fwd++
	}
	if err != nil || !echoed(rep, id) {
		c.failed++
	}
	c.span(name, start, end, 1, 0)
}

func (w *clusterWorld) parts() parts {
	var p parts
	for _, c := range w.nodes {
		p.systems = append(p.systems, c.System())
		p.nodes = append(p.nodes, c.Node())
		p.clusters = append(p.clusters, c)
	}
	return p
}

func (w *clusterWorld) close() {
	for _, c := range w.nodes {
		c.Close()
	}
}
