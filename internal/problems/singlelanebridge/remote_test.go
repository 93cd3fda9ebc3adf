package singlelanebridge

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/remote"
)

func TestRemoteBridgeMemTransport(t *testing.T) {
	m, err := RunActorsRemote(core.Params{"red": 2, "blue": 2, "crossings": 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m["crossings"] != 4*15 {
		t.Fatalf("crossings = %d, want %d", m["crossings"], 4*15)
	}
	if m["wireSent"] == 0 {
		t.Fatal("no frames crossed the wire; this did not run distributed")
	}
}

func TestRemoteBridgeSurvivesWireDrops(t *testing.T) {
	// 5% of all wire frames (requests, replies, heartbeats) vanish. The
	// idempotent protocol plus AskRetry must still complete every crossing
	// with the invariant intact.
	m, err := RunActorsRemote(core.Params{"red": 2, "blue": 2, "crossings": 15, "drop": 5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m["crossings"] != 4*15 {
		t.Fatalf("crossings = %d, want %d", m["crossings"], 4*15)
	}
	if m["wireDropped"] == 0 {
		t.Fatal("injector dropped nothing; the run was not actually lossy")
	}
}

func TestRemoteBridgeTCPLoopback(t *testing.T) {
	m, err := RunActorsRemote(core.Params{"red": 2, "blue": 2, "crossings": 10, "tcp": 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m["crossings"] != 4*10 {
		t.Fatalf("crossings = %d, want %d", m["crossings"], 4*10)
	}
}

// TestRemoteBridgePartitionMidRun cuts the link between the two nodes while
// cars are mid-workload, holds the partition long enough for heartbeat
// timeouts and deadletters, then heals it and requires the run to converge:
// every crossing completes and the safety invariant holds throughout.
func TestRemoteBridgePartitionMidRun(t *testing.T) {
	net := remote.NewMemNetwork()
	part := faults.NewPartition()
	net.SetInjector(part)

	mk := func(addr string, seed int64) *remote.Node {
		n, err := remote.NewNode(remote.Config{
			ListenAddr: addr, Transport: net.Endpoint(addr), Seed: seed,
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  25 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	bridgeNode := mk("bridge-node", 1)
	defer bridgeNode.Close()
	carNode := mk("cars", 2)
	defer carNode.Close()

	ServeRemoteBridge(bridgeNode)
	bridge, err := carNode.RefFor("bridge@" + bridgeNode.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := carNode.Connect(bridgeNode.Addr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Prove the partition bites before the cars start: a frame sent into a
	// cut link is dropped at the transport, synchronously and determinist-
	// ically (a short workload could otherwise finish before the sawtooth
	// below ever lands a cut).
	part.Cut("cars", "bridge-node")
	bridge.Tell(EnterReq{Car: "probe", N: 0, Red: true})
	deadline := time.Now().Add(5 * time.Second)
	for part.Dropped() == 0 {
		// The drop happens when the link goroutine pumps its outbox into
		// the faulted transport (or on the next heartbeat), not inside Tell.
		if time.Now().After(deadline) {
			t.Fatal("cut link did not drop the probe frame")
		}
		time.Sleep(time.Millisecond)
	}
	part.HealAll()

	// Saw the link while the workload runs: cut 10ms (within reach of the
	// heartbeat timeout, so the link can actually go down), heal 10ms,
	// repeat.
	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for {
			select {
			case <-stopChaos:
				part.HealAll()
				return
			case <-time.After(10 * time.Millisecond):
				part.Cut("cars", "bridge-node")
			}
			select {
			case <-stopChaos:
				part.HealAll()
				return
			case <-time.After(10 * time.Millisecond):
				part.HealAll()
			}
		}
	}()

	m, err := DriveRemoteCars(carNode.System(), bridge, 2, 2, 15, 7)
	close(stopChaos)
	<-chaosDone
	if err != nil {
		t.Fatal(err)
	}
	if m["crossings"] != 4*15 {
		t.Fatalf("crossings = %d, want %d", m["crossings"], 4*15)
	}
	if part.Dropped() == 0 {
		t.Fatal("partition never dropped anything; the chaos did not bite")
	}
}

// TestRemoteBridgeDropsAndPartitionCombined layers both chaos modes at once:
// 5% random frame loss the whole time, plus a partition sawtooth cutting the
// link mid-run. Random drops can take a streaming session's type descriptors
// with them (forcing a teardown + fresh sessions, not just a lost message),
// and the partition forces reconnects on top — the idempotent protocol and
// AskRetry must still complete every crossing with the invariant intact.
func TestRemoteBridgeDropsAndPartitionCombined(t *testing.T) {
	net := remote.NewMemNetwork()
	part := faults.NewPartition()
	drops := faults.Drop(99, 0.05, faults.AtSite(faults.SiteWire))
	net.SetInjector(faults.Chain(part, drops))

	mk := func(addr string, seed int64) *remote.Node {
		n, err := remote.NewNode(remote.Config{
			ListenAddr: addr, Transport: net.Endpoint(addr), Seed: seed,
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  25 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	bridgeNode := mk("bridge-node", 1)
	defer bridgeNode.Close()
	carNode := mk("cars", 2)
	defer carNode.Close()

	ServeRemoteBridge(bridgeNode)
	bridge, err := carNode.RefFor("bridge@" + bridgeNode.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := carNode.Connect(bridgeNode.Addr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for {
			select {
			case <-stopChaos:
				part.HealAll()
				return
			case <-time.After(10 * time.Millisecond):
				part.Cut("cars", "bridge-node")
			}
			select {
			case <-stopChaos:
				part.HealAll()
				return
			case <-time.After(10 * time.Millisecond):
				part.HealAll()
			}
		}
	}()

	m, err := DriveRemoteCars(carNode.System(), bridge, 2, 2, 10, 13)
	close(stopChaos)
	<-chaosDone
	if err != nil {
		t.Fatal(err)
	}
	if m["crossings"] != 4*10 {
		t.Fatalf("crossings = %d, want %d", m["crossings"], 4*10)
	}
	if part.Dropped() == 0 {
		t.Fatal("partition never bit")
	}
	if net.Dropped() == part.Dropped() {
		t.Fatal("random drops never bit on top of the partition")
	}
}
