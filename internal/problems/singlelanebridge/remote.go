package singlelanebridge

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/remote"
)

// Distributed variant: the cars live in one actor system (node A), the
// bridge controller in another (node B), and every entry/exit request
// crosses the wire. The protocol is the chaos variant's idempotent one —
// immediate grant/nack/stale answers, requests keyed by (car, crossing) —
// because the wire is at-most-once: a lost request or reply surfaces as an
// AskRetry timeout and the retry must be safe to re-deliver. The safety
// invariant is audited on the car side, so a protocol bug that double-grants
// across the wire fails the run exactly like a local one.
//
// Unlike the in-process variants the message types are exported with
// exported fields: the wire encodes payloads with gob, which cannot see
// unexported fields.

// EnterReq asks the bridge to let car number N of the named car on, in the
// red or blue direction. Retransmits of the same (Car, N) are idempotent.
type EnterReq struct {
	Car string
	N   int
	Red bool
}

// Granted says the car is on the bridge (or already was, for a duplicate).
type Granted struct{}

// BusyNack says the opposite direction holds the bridge; poll again.
type BusyNack struct{}

// EnterStale refuses a retransmit of a crossing that already completed.
type EnterStale struct{}

// ExitReq reports car Car leaving after crossing N.
type ExitReq struct {
	Car string
	N   int
	Red bool
}

// ExitAck acknowledges an exit, duplicate or not.
type ExitAck struct{}

func init() {
	remote.RegisterType(EnterReq{})
	remote.RegisterType(Granted{})
	remote.RegisterType(BusyNack{})
	remote.RegisterType(EnterStale{})
	remote.RegisterType(ExitReq{})
	remote.RegisterType(ExitAck{})
}

// ServeRemoteBridge spawns the bridge controller in node's actor system and
// exports it as "bridge", so peers reach it via "bridge@<node addr>". The
// behavior is the chaos variant's idempotent state machine.
func ServeRemoteBridge(node *remote.Node) *actors.Ref {
	onBridge := make(map[string]int)
	done := make(map[string]int)
	redOn, blueOn := 0, 0
	bridge := node.System().MustSpawn("bridge", func(ctx *actors.Context, msg any) {
		switch m := msg.(type) {
		case EnterReq:
			if d, ok := done[m.Car]; ok && m.N <= d {
				ctx.Reply(EnterStale{}) // ghost of a finished crossing
				return
			}
			if cur, ok := onBridge[m.Car]; ok && cur == m.N {
				ctx.Reply(Granted{}) // duplicate of the current grant
				return
			}
			blocked := blueOn
			if !m.Red {
				blocked = redOn
			}
			if blocked > 0 {
				ctx.Reply(BusyNack{})
				return
			}
			onBridge[m.Car] = m.N
			if m.Red {
				redOn++
			} else {
				blueOn++
			}
			ctx.Reply(Granted{})
		case ExitReq:
			if cur, ok := onBridge[m.Car]; ok && cur == m.N {
				delete(onBridge, m.Car)
				done[m.Car] = m.N
				if m.Red {
					redOn--
				} else {
					blueOn--
				}
			}
			ctx.Reply(ExitAck{}) // ack duplicates too: exit is idempotent
		}
	})
	node.Register("bridge", bridge)
	return bridge
}

// DriveRemoteCars runs red+blue car goroutines in sys, each crossing
// `crossings` times through the (typically remote) bridge ref, and returns
// the audited metrics. AskRetry supplies the at-least-once layer over the
// wire's at-most-once delivery.
func DriveRemoteCars(sys *actors.System, bridge *actors.Ref, red, blue, crossings int, seed int64) (core.Metrics, error) {
	var a safetyAuditor
	errCh := make(chan error, red+blue)
	var wg sync.WaitGroup
	car := func(id int64, name string, isRed bool) {
		defer wg.Done()
		rc := actors.RetryConfig{
			Attempts:   400,
			Timeout:    50 * time.Millisecond,
			Backoff:    300 * time.Microsecond,
			MaxBackoff: 10 * time.Millisecond,
			Jitter:     0.3,
			Budget:     60 * time.Second,
			Seed:       seed + id,
		}
		for n := 0; n < crossings; n++ {
			for {
				rep, err := actors.AskRetry(sys, bridge, EnterReq{Car: name, N: n, Red: isRed}, rc)
				if err != nil {
					errCh <- fmt.Errorf("%s: enter %d: %w", name, n, err)
					return
				}
				if _, ok := rep.(Granted); ok {
					break
				}
				time.Sleep(200 * time.Microsecond) // busy or stale: poll again
			}
			a.enter(isRed)
			a.exit(isRed)
			for {
				rep, err := actors.AskRetry(sys, bridge, ExitReq{Car: name, N: n, Red: isRed}, rc)
				if err != nil {
					errCh <- fmt.Errorf("%s: exit %d: %w", name, n, err)
					return
				}
				if _, ok := rep.(ExitAck); ok {
					break
				}
			}
		}
	}
	for r := 0; r < red; r++ {
		wg.Add(1)
		go car(int64(r), fmt.Sprintf("redCar-%d", r), true)
	}
	for b := 0; b < blue; b++ {
		wg.Add(1)
		go car(int64(100+b), fmt.Sprintf("blueCar-%d", b), false)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("singlelanebridge-remote: %w", err)
	default:
	}
	return a.metrics(red, blue, crossings)
}

// RunActorsRemote runs the bridge on one node and the cars on another.
// Params:
//
//	red, blue, crossings — workload size
//	tcp=1   — real loopback TCP sockets instead of the in-process transport
//	drop=N  — (mem transport only) drop N% of wire frames, seeded; AskRetry
//	          plus the idempotent protocol must still converge
//	partition=N — (mem transport only) once the nodes are connected, cut the
//	          cars↔bridge link completely for N ms, then heal; the retry
//	          budget must absorb the outage
func RunActorsRemote(p core.Params, seed int64) (core.Metrics, error) {
	red := p.Get("red", 2)
	blue := p.Get("blue", 2)
	crossings := p.Get("crossings", 10)
	useTCP := p.Get("tcp", 0) == 1
	dropPct := p.Get("drop", 0)
	partMS := p.Get("partition", 0)

	var carTransport, bridgeTransport remote.Transport
	carAddr, bridgeAddr := "cars", "bridge-node"
	var memNet *remote.MemNetwork
	var part *faults.Partition
	if useTCP {
		carAddr, bridgeAddr = "127.0.0.1:0", "127.0.0.1:0"
		carTransport, bridgeTransport = remote.TCPTransport{}, remote.TCPTransport{}
	} else {
		memNet = remote.NewMemNetwork()
		carTransport = memNet.Endpoint(carAddr)
		bridgeTransport = memNet.Endpoint(bridgeAddr)
		var injs []faults.Injector
		if dropPct > 0 {
			injs = append(injs, faults.Drop(seed+7, float64(dropPct)/100, faults.AtSite(faults.SiteWire)))
		}
		if partMS > 0 {
			part = faults.NewPartition()
			injs = append(injs, part)
		}
		if len(injs) > 0 {
			memNet.SetInjector(faults.Chain(injs...))
		}
	}

	bridgeNode, err := remote.NewNode(remote.Config{
		ListenAddr: bridgeAddr, Transport: bridgeTransport, Seed: seed,
		HeartbeatInterval: 20 * time.Millisecond,
		ReconnectMin:      time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("singlelanebridge-remote: bridge node: %w", err)
	}
	defer bridgeNode.Close()
	carNode, err := remote.NewNode(remote.Config{
		ListenAddr: carAddr, Transport: carTransport, Seed: seed + 1,
		HeartbeatInterval: 20 * time.Millisecond,
		ReconnectMin:      time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("singlelanebridge-remote: car node: %w", err)
	}
	defer carNode.Close()

	ServeRemoteBridge(bridgeNode)
	bridge, err := carNode.RefFor("bridge@" + bridgeNode.Addr())
	if err != nil {
		return nil, fmt.Errorf("singlelanebridge-remote: %w", err)
	}
	if err := carNode.Connect(bridgeNode.Addr(), 5*time.Second); err != nil {
		return nil, fmt.Errorf("singlelanebridge-remote: %w", err)
	}
	// The partition starts only after the link is up: a cut during the
	// initial dial would fail the whole run instead of modelling an outage
	// the protocol must survive.
	if part != nil {
		part.Cut(carAddr, bridgeAddr)
		heal := time.AfterFunc(time.Duration(partMS)*time.Millisecond, part.HealAll)
		defer heal.Stop()
	}

	m, err := DriveRemoteCars(carNode.System(), bridge, red, blue, crossings, seed)
	if err != nil {
		return nil, err
	}
	st := carNode.Stats()
	m["wireSent"] = st.Sent
	m["wireDeadLetters"] = st.RemoteDeadLetters + carNode.System().DeadLettersOf(actors.DLRemote)
	if memNet != nil {
		m["wireDropped"] = memNet.Dropped()
	}
	return m, nil
}

// RemoteSpec returns the registry entry for the distributed variant. The
// defaults are small because the conformance suite runs every registered
// spec — two nodes, wire codec and all — under -race.
func RemoteSpec() *core.Spec {
	return &core.Spec{
		Name:        "singlelanebridge-remote",
		Description: "cars on one node, bridge controller on another, entry protocol over the wire",
		Defaults:    core.Params{"red": 2, "blue": 2, "crossings": 10},
		Runs: map[core.Model]core.RunFunc{
			core.Actors: RunActorsRemote,
		},
	}
}
