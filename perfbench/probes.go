package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/cluster"
	"repro/internal/coro"
	"repro/internal/pseudocode"
	"repro/internal/remote"
	"repro/internal/threads"
)

// parts are the layers' handles a world exposes for counter snapshots.
type parts struct {
	systems  []*actors.System
	nodes    []*remote.Node
	clusters []*cluster.Cluster
}

// counters sums the layers' counters over a set of parts.
type counters struct {
	deadletters                               int64
	sent, batches, batchedFrames, stalls      int64
	outboxOverflows, inboundShed              int64
	activations, parked, forwards, fwdDropped int64
}

func snapshot(ps ...parts) counters {
	var c counters
	for _, p := range ps {
		for _, s := range p.systems {
			c.deadletters += s.DeadLetters()
		}
		for _, n := range p.nodes {
			st := n.Stats()
			c.sent += st.Sent
			c.batches += st.Batches
			c.batchedFrames += st.BatchedFrames
			c.stalls += st.CreditStalls
			c.outboxOverflows += st.OutboxOverflows
			c.inboundShed += st.InboundShed
		}
		for _, cl := range p.clusters {
			s := cl.CounterSnapshot()
			c.activations += s.Activations
			c.parked += s.Parked
			c.forwards += s.Forwards
			c.fwdDropped += s.ForwardDrops
		}
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		a.deadletters - b.deadletters,
		a.sent - b.sent, a.batches - b.batches, a.batchedFrames - b.batchedFrames, a.stalls - b.stalls,
		a.outboxOverflows - b.outboxOverflows, a.inboundShed - b.inboundShed,
		a.activations - b.activations, a.parked - b.parked, a.forwards - b.forwards, a.fwdDropped - b.fwdDropped,
	}
}

// probeBatch is how many calls a batched probe makes inside one span, for
// calls too short to time one by one.
const probeBatch = 64

// probeGrains sizes the probe cluster built for workloads without one.
const probeGrains = 256

// probeWorld holds what the layer probes call into: a local actor system, a
// remote node pair, a cluster (the workload's own, when it has one), a
// monitor with a partner goroutine, a coroutine, the course matrix and the
// explorer corpus. Only the probe caller's goroutine uses it.
type probeWorld struct {
	sys        *actors.System
	echo, sink *actors.Ref
	told       int64
	sunk       atomic.Int64

	near, far *remote.Node
	farEcho   *actors.Ref

	// flood fires bursts of one-way Tells past the credit window into a
	// bounded, shedding sink: coalescing, credit stalls and mailbox
	// admission. floodCaller keeps its counts apart from the probe caller's.
	flood       *floodWorld
	floodCaller *caller

	cl    *clusterWorld
	ownCl bool

	mon, lock   threads.Monitor
	turn        int  // guarded by mon: 1 = ping pending, 2 = pong pending
	stopPartner bool // guarded by mon
	partnerDone chan struct{}

	gen *coro.Coroutine

	runs  []problemRun
	progs map[string]*pseudocode.Compiled
	srcs  map[string]string
	names []string // corpus programs, for the compile probe

	cheap, heavy     []func(*caller)
	heavyPos         int
	cheapNs, heavyNs int64
	failed, calls    int64
}

func newProbeWorld(w world, seed int64) (*probeWorld, error) {
	p := &probeWorld{sys: actors.NewSystem(actors.Config{}), partnerDone: make(chan struct{})}
	p.echo = p.sys.MustSpawn("probe-echo", echoBehavior)
	p.sink = p.sys.MustSpawn("probe-sink", func(*actors.Context, any) { p.sunk.Add(1) })
	go p.partner()

	p.gen = coro.New(func(y *coro.Yielder, in any) any {
		for {
			y.Yield(nil)
		}
	})

	net := remote.NewMemNetwork()
	var err error
	if p.near, err = remote.NewNode(remote.Config{ListenAddr: "probe-near", Transport: net.Endpoint("probe-near")}); err != nil {
		p.close()
		return nil, err
	}
	if p.far, err = remote.NewNode(remote.Config{ListenAddr: "probe-far", Transport: net.Endpoint("probe-far")}); err != nil {
		p.close()
		return nil, err
	}
	p.far.Register("echo", p.far.System().MustSpawn("echo", echoBehavior))
	if p.farEcho, err = p.near.RefFor("echo@" + p.far.Addr()); err == nil {
		err = p.near.Connect(p.far.Addr(), 5*time.Second)
	}
	if err != nil {
		p.close()
		return nil, err
	}

	if p.flood, err = newFloodWorld(seed); err != nil {
		p.close()
		return nil, fmt.Errorf("probe flood: %w", err)
	}
	p.floodCaller = newCaller(0, seed, nil)

	if cw, ok := w.(*clusterWorld); ok {
		p.cl = cw
	} else {
		if p.cl, err = newClusterWorld(probeGrains, seed, nil); err != nil {
			p.close()
			return nil, fmt.Errorf("probe cluster: %w", err)
		}
		p.ownCl = true
	}

	if p.runs, err = courseRuns(); err != nil {
		p.close()
		return nil, err
	}
	if p.progs, err = compileCorpus(); err != nil {
		p.close()
		return nil, err
	}
	p.srcs = pseudocode.CorpusPrograms()
	p.names = sortedKeys(p.progs)

	p.cheap = []func(*caller){
		p.spawnStop, p.askLocal, p.tell, p.remoteAsk, p.ownerLookup,
		p.askOwnerLocal, p.askForwarded, p.loadgenOp,
		p.enterExit, p.waitNotify, p.resumeYield, p.coroCreate,
	}
	for _, r := range p.runs {
		p.heavy = append(p.heavy, func(c *caller) { p.problem(c, r) })
	}
	for _, ec := range corpusCases() {
		p.heavy = append(p.heavy, func(c *caller) { p.explore(c, ec) })
	}
	for _, name := range p.names {
		p.heavy = append(p.heavy, func(c *caller) { p.compile(c, name) })
	}
	p.heavy = append(p.heavy, p.floodBurst)
	return p, nil
}

// step is the probe caller's op: one rotation of the cheap probes, or one
// heavy probe (a problem run, an exploration, a compile), splitting the
// probe caller's time evenly between the two kinds.
func (p *probeWorld) step(c *caller) {
	t0 := now()
	if p.heavyNs < p.cheapNs {
		p.heavy[p.heavyPos%len(p.heavy)](c)
		p.heavyPos++
		p.heavyNs += now() - t0
		return
	}
	for _, f := range p.cheap {
		f(c)
	}
	p.cheapNs += now() - t0
}

// more reports whether some heavy probe has not run yet.
func (p *probeWorld) more() bool { return p.heavyPos < len(p.heavy) }

// timed runs fn as one span of n units and counts a failure when it
// reports one.
func (p *probeWorld) timed(c *caller, name string, n int64, fn func() bool) {
	start := now()
	ok := fn()
	c.span(name, start, now(), n, 0)
	p.calls++
	if !ok {
		p.failed++
	}
}

func (p *probeWorld) ask(c *caller, name string, sys *actors.System, ref *actors.Ref) {
	c.seq++
	id := int64(c.id)<<40 | c.seq
	p.timed(c, name, 1, func() bool {
		rep, err := actors.Ask(sys, ref, echoReq{ID: id}, askTimeout)
		return err == nil && echoed(rep, id)
	})
}

// spawnStop is the reply actor's life inside every Ask: spawn, stop, and
// wait until it has ended.
func (p *probeWorld) spawnStop(c *caller) {
	p.timed(c, "actors.spawn_stop", 1, func() bool {
		ref, err := p.sys.Spawn("probe-reply", func(*actors.Context, any) {})
		if err != nil {
			return false
		}
		p.sys.Stop(ref)
		p.sys.Await(ref)
		return true
	})
}

func (p *probeWorld) askLocal(c *caller) { p.ask(c, "actors.ask_local", p.sys, p.echo) }

func (p *probeWorld) tell(c *caller) {
	p.timed(c, "actors.tell", probeBatch, func() bool {
		for i := 0; i < probeBatch; i++ {
			p.sink.Tell(i)
		}
		return true
	})
	p.told += probeBatch
}

func (p *probeWorld) remoteAsk(c *caller) { p.ask(c, "remote.ask", p.near.System(), p.farEcho) }

func (p *probeWorld) ownerLookup(c *caller) {
	names := p.cl.names
	first := c.rng.Intn(len(names))
	p.timed(c, "cluster.owner_lookup", probeBatch, func() bool {
		ok := true
		for i := 0; i < probeBatch; i++ {
			_, found := p.cl.nodes[0].OwnerOf(names[(first+i)%len(names)])
			ok = ok && found
		}
		return ok
	})
}

func (p *probeWorld) askOwnerLocal(c *caller) {
	local := p.cl.localIdx[0]
	p.ask(c, "cluster.ask_owner_local", p.cl.nodes[0].System(), p.cl.refs[0][local[c.rng.Intn(len(local))]])
}

func (p *probeWorld) askForwarded(c *caller) {
	far := p.cl.remoteIdx[0]
	p.ask(c, "cluster.ask_forwarded", p.cl.nodes[0].System(), p.cl.refs[0][far[c.rng.Intn(len(far))]])
}

// loadgenOp is the cluster workload's op, issued by the probe caller.
func (p *probeWorld) loadgenOp(c *caller) { p.cl.ask(c, 0, c.rng.Intn(p.cl.grains), "loadgen.op") }

// singleOp is the loadgen op with no other caller running.
func (p *probeWorld) singleOp(c *caller) {
	p.cl.ask(c, 0, c.rng.Intn(p.cl.grains), "loadgen.op_single")
}

func (p *probeWorld) enterExit(c *caller) {
	p.timed(c, "threads.enter_exit", probeBatch, func() bool {
		for i := 0; i < probeBatch; i++ {
			p.lock.Enter()
			p.lock.Exit()
		}
		return true
	})
}

// waitNotify is one round trip through a monitor: notify the partner
// goroutine and wait for its notify back.
func (p *probeWorld) waitNotify(c *caller) {
	p.timed(c, "threads.wait_notify", 1, func() bool {
		p.mon.Enter()
		p.turn = 1
		p.mon.Notify("ping")
		for p.turn != 2 {
			p.mon.Wait("pong")
		}
		p.turn = 0
		p.mon.Exit()
		return true
	})
}

func (p *probeWorld) partner() {
	defer close(p.partnerDone)
	p.mon.Enter()
	defer p.mon.Exit()
	for {
		for p.turn != 1 && !p.stopPartner {
			p.mon.Wait("ping")
		}
		if p.stopPartner {
			return
		}
		p.turn = 2
		p.mon.Notify("pong")
	}
}

func (p *probeWorld) resumeYield(c *caller) {
	p.timed(c, "coro.resume_yield", probeBatch, func() bool {
		for i := 0; i < probeBatch; i++ {
			if _, _, err := p.gen.Resume(nil); err != nil {
				return false
			}
		}
		return true
	})
}

func (p *probeWorld) coroCreate(c *caller) {
	p.timed(c, "coro.create", 1, func() bool {
		co := coro.New(func(_ *coro.Yielder, in any) any { return in })
		out, done, err := co.Resume(1)
		return err == nil && done && out == 1
	})
}

func (p *probeWorld) problem(c *caller, r problemRun) {
	seed := c.rng.Int63()
	p.timed(c, r.span, 1, func() bool {
		_, err := r.spec.Run(r.model, courseParams[r.spec.Name], seed)
		return err == nil
	})
}

func (p *probeWorld) explore(c *caller, ec exploreCase) {
	start := now()
	res, err := pseudocode.Explore(p.progs[ec.program], exploreOpts(ec.sem))
	end := now()
	p.calls++
	if err != nil || res.Truncated {
		p.failed++
		return
	}
	c.span(ec.span(), start, end, int64(res.StatesVisited), int64(res.Transitions))
}

// floodBurst fires one flood burst and waits for it to land.
func (p *probeWorld) floodBurst(c *caller) {
	p.floodCaller.lane = c.lane
	p.flood.op(p.floodCaller)
}

func (p *probeWorld) compile(c *caller, name string) {
	p.timed(c, "pseudocode.compile", 1, func() bool {
		_, err := pseudocode.CompileSource(p.srcs[name])
		return err == nil
	})
}

// codecStats are the streaming codec's steady-state costs, as the remote
// package's benchmark hooks measure them.
type codecStats struct{ encodeNs, decodeNs, encodeAllocs, bytesPerFrame float64 }

// codec runs the codec hooks reps times on a message-frame envelope and
// returns the medians. The hooks force a GC first, so they run outside the
// load windows.
func (p *probeWorld) codec(c *caller, reps, n int) codecStats {
	env := &remote.WireEnvelope{
		Kind: remote.FrameMsg, To: "sink", FromAddr: "probe-near",
		FromName: "driver", FromID: 7, Seq: 42, Lamport: 99,
		Payload: echoReq{ID: 7},
	}
	var enc, dec, allocs []float64
	var bytes float64
	for r := 0; r < reps; r++ {
		start := now()
		ns, a, b := remote.BenchStreamEncode(n, env)
		c.span("remote.encode", start, now(), int64(n), 0)
		start = now()
		dns, _ := remote.BenchStreamDecode(n, env)
		c.span("remote.decode", start, now(), int64(n), 0)
		enc, dec, allocs, bytes = append(enc, ns), append(dec, dns), append(allocs, a), b
	}
	return codecStats{median(enc), median(dec), median(allocs), bytes}
}

func (p *probeWorld) parts() parts {
	ps := parts{systems: []*actors.System{p.sys}}
	for _, n := range []*remote.Node{p.near, p.far} {
		if n != nil {
			ps.systems = append(ps.systems, n.System())
			ps.nodes = append(ps.nodes, n)
		}
	}
	if p.flood != nil {
		fp := p.flood.parts()
		ps.systems = append(ps.systems, fp.systems...)
		ps.nodes = append(ps.nodes, fp.nodes...)
	}
	if p.ownCl {
		cp := p.cl.parts()
		ps.systems = append(ps.systems, cp.systems...)
		ps.nodes = append(ps.nodes, cp.nodes...)
		ps.clusters = cp.clusters
	}
	return ps
}

// verify waits for the told messages to reach the probe sink and returns
// the shortfall plus the flood's lost messages.
func (p *probeWorld) verify() int64 {
	deadline := time.Now().Add(5 * time.Second)
	for p.sunk.Load() < p.told && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return p.told - p.sunk.Load() + p.floodCaller.failed + p.flood.verify()
}

func (p *probeWorld) close() {
	p.mon.Enter()
	p.stopPartner = true
	p.mon.Notify("ping")
	p.mon.Exit()
	<-p.partnerDone
	_ = p.gen.Kill("probe world closed") // ends the coroutine's goroutine
	if p.ownCl {
		p.cl.close()
	}
	if p.flood != nil {
		p.flood.close()
	}
	for _, n := range []*remote.Node{p.near, p.far} {
		if n != nil {
			n.Close()
		}
	}
	p.sys.Shutdown()
}
