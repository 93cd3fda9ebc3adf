package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/actors"
	"repro/internal/remote"
)

// floodMsg is one one-way message of the flood.
type floodMsg struct{ Seq int64 }

const (
	// floodBurst is larger than the default 1024-message credit window, so
	// every burst crosses at least one credit stall.
	floodBurst = 4096
	// floodSinkCap bounds the sink's mailbox above the credit window, with
	// shedding: the bounded-mailbox admission path. Credits keep the
	// backlog below it, so nothing is shed.
	floodSinkCap = 4 * 1024
	floodTimeout = 10 * time.Second
)

// floodWorld is two nodes over a MemNetwork: the near node's sender fires
// bursts of one-way Tells at a sink on the far node and waits for each
// burst to land. The traced run fires its bursts as a probe.
type floodWorld struct {
	near, far *remote.Node
	sinkSys   *actors.System // the far node's system, which the node does not own
	ref       *actors.Ref
	next      int64 // next sequence number
	broken    bool  // a burst never landed; the sink may still be writing

	// Written by the sink actor only; the caller reads them after done.
	want, got, seqSum int64
	done              chan struct{}
}

func newFloodWorld(seed int64) (*floodWorld, error) {
	w := &floodWorld{done: make(chan struct{}, 1), next: rand.New(rand.NewSource(seed)).Int63n(1 << 40)}
	net := remote.NewMemNetwork()
	near, err := remote.NewNode(remote.Config{ListenAddr: "near", Transport: net.Endpoint("near"), OutboxCap: floodBurst + 64})
	if err != nil {
		return nil, err
	}
	w.near = near
	sinkSys := actors.NewSystem(actors.Config{MailboxCap: floodSinkCap, MailboxPolicy: actors.MailboxShed})
	w.sinkSys = sinkSys
	far, err := remote.NewNode(remote.Config{ListenAddr: "far", Transport: net.Endpoint("far"), System: sinkSys})
	if err != nil {
		w.close()
		return nil, err
	}
	w.far = far
	sink, err := sinkSys.Spawn("sink", w.sink)
	if err != nil {
		w.close()
		return nil, err
	}
	far.Register("sink", sink)
	if w.ref, err = near.RefFor("sink@" + far.Addr()); err == nil {
		err = near.Connect(far.Addr(), 5*time.Second)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	// One burst settles the link: codec sessions, credit negotiation.
	c := newCaller(0, seed, nil)
	w.op(c)
	if c.failed > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up burst lost %d of %d messages", c.failed, floodBurst)
	}
	return w, nil
}

func (w *floodWorld) sink(ctx *actors.Context, msg any) {
	m, ok := msg.(floodMsg)
	if !ok {
		return
	}
	w.got++
	w.seqSum += m.Seq
	if w.got == w.want {
		w.done <- struct{}{}
	}
}

// op fires one burst and waits for it to land; one op is one message. The
// burst checks out when every message arrived exactly once.
func (w *floodWorld) op(c *caller) {
	if w.broken {
		c.ops += floodBurst
		c.failed += floodBurst
		return
	}
	first := w.next
	w.next += floodBurst
	w.want, w.got, w.seqSum = floodBurst, 0, 0
	start := now()
	for s := first; s < first+floodBurst; s++ {
		w.ref.Tell(floodMsg{Seq: s})
	}
	landed := true
	select {
	case <-w.done:
	case <-time.After(floodTimeout):
		landed = false
	}
	end := now()
	c.span("remote.flood_burst", start, end, floodBurst, 0)
	c.ops += floodBurst
	wantSum := floodBurst*first + floodBurst*(floodBurst-1)/2
	if !landed {
		w.broken = true
	}
	if !landed || w.seqSum != wantSum {
		c.failed += floodBurst
	}
}

// verify counts messages deadlettered or shed anywhere on the path.
func (w *floodWorld) verify() int64 {
	st := w.near.Stats()
	ft := w.far.Stats()
	return w.near.System().DeadLetters() + w.far.System().DeadLetters() +
		st.OutboxOverflows + st.InboundShed + ft.InboundShed
}

func (w *floodWorld) parts() parts {
	return parts{
		systems: []*actors.System{w.near.System(), w.far.System()},
		nodes:   []*remote.Node{w.near, w.far},
	}
}

func (w *floodWorld) close() {
	if w.near != nil {
		w.near.Close()
	}
	if w.far != nil {
		w.far.Close()
	}
	w.sinkSys.Shutdown()
}
