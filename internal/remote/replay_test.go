package remote

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/faults"
	"repro/internal/trace"
)

// replayNodes builds the two-node fixture used by the record/replay tests:
// nodes "A" and "B" on one MemNetwork with heartbeats effectively disabled
// (liveness probes tick Lamport clocks at wall-clock rate, which would make
// merged diagrams timing-dependent) and the wire log on, so each run yields
// a mergeable Lamport trace.
func replayNodes(t *testing.T) (a, b *Node, net *MemNetwork) {
	t.Helper()
	net = NewMemNetwork()
	mk := func(addr string) *Node {
		n, err := NewNode(Config{
			ListenAddr:        addr,
			Transport:         net.Endpoint(addr),
			HeartbeatInterval: time.Hour,
			HeartbeatTimeout:  4 * time.Hour,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
			Seed:              1,
			RecordWire:        true,
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", addr, err)
		}
		return n
	}
	a, b = mk("A"), mk("B")
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, net
}

// runEchoWorkload is the deterministic workload both record and replay
// execute: one sequential driver on node A asks node B's echo actor rounds
// times, riding AskRetry over whatever the wire loses. It returns the sum
// of the replies (the observable outcome) and the first error.
func runEchoWorkload(a, b *Node, rounds int) (int, error) {
	echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(tPing); ok {
			ctx.Reply(tPong{N: p.N + 1})
		}
	})
	b.Register("echo", echo)
	ref, err := a.RefFor("echo@" + b.Addr())
	if err != nil {
		return 0, err
	}
	// Pre-establish both link directions and let the hello/ack exchanges
	// quiesce: connection setup ticks Lamport clocks on its own wall-clock
	// schedule, so it must finish before the first message for the merged
	// diagram to be schedule-determined. (Replies would otherwise dial the
	// B→A link mid-workload.)
	if err := a.Connect(b.Addr(), 5*time.Second); err != nil {
		return 0, err
	}
	quiesceClocks(a, b)
	if err := b.Connect(a.Addr(), 5*time.Second); err != nil {
		return 0, err
	}
	quiesceClocks(a, b)
	sum := 0
	for i := 0; i < rounds; i++ {
		r, err := actors.AskRetry(a.System(), ref, tPing{N: i}, actors.RetryConfig{
			Attempts: 10,
			Timeout:  150 * time.Millisecond,
			Backoff:  2 * time.Millisecond,
		})
		if err != nil {
			return sum, err
		}
		sum += r.(tPong).N
	}
	return sum, nil
}

// quiesceClocks waits until neither node's Lamport clock has moved for a
// few polls — the in-flight control frames of connection setup have landed.
func quiesceClocks(a, b *Node) {
	stable := 0
	last := [2]uint64{}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		cur := [2]uint64{a.Clock().Now(), b.Clock().Now()}
		if cur == last {
			if stable++; stable >= 6 {
				return
			}
		} else {
			stable, last = 0, cur
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mergedDiagram renders the two nodes' wire logs as one causally-sorted
// Lamport diagram — the byte string the determinism property compares.
func mergedDiagram(a, b *Node) string {
	return trace.FormatLamport(trace.MergeLamport(a.LamportLog(), b.LamportLog()))
}

// dropMsgsOnly drops matching frames but never dial attempts, so connection
// establishment stays reliable while the message path is lossy.
func dropMsgsOnly(seed int64, prob float64) faults.Injector {
	return faults.Drop(seed, prob, func(op faults.Op) bool { return op.Msg != "dial" })
}

// TestReplayDeterministicLamportDiagram is the tentpole property test: a
// recorded lossy run, replayed 10 times, yields a byte-identical merged
// Lamport diagram and the same observable outcome every time.
func TestReplayDeterministicLamportDiagram(t *testing.T) {
	const rounds = 10

	// Record: a seeded lossy wire. The recording captures every application
	// frame's (link, dropped) in global arrival order.
	a, b, net := replayNodes(t)
	net.SetInjector(dropMsgsOnly(7, 0.2))
	rec := net.Record(7)
	recSum, err := runEchoWorkload(a, b, rounds)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("recording captured no frames")
	}
	if rec.Drops() == 0 {
		t.Fatal("record run lost no frames; the property needs a lossy schedule (pick another seed)")
	}
	t.Logf("recorded %d frames, %d dropped, outcome %d", rec.Len(), rec.Drops(), recSum)

	// Save/Load round-trip through the on-disk format the CLI flags use.
	path := filepath.Join(t.TempDir(), "run.wirelog")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWireRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != 7 || loaded.Len() != rec.Len() {
		t.Fatalf("Load = seed %d, %d entries; want seed 7, %d", loaded.Seed, loaded.Len(), rec.Len())
	}

	diagrams := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		ra, rb, rnet := replayNodes(t)
		rnet.Replay(loaded)
		sum, err := runEchoWorkload(ra, rb, rounds)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if sum != recSum {
			t.Fatalf("replay %d outcome %d, recorded run saw %d", i, sum, recSum)
		}
		d := mergedDiagram(ra, rb)
		if d == "" {
			t.Fatalf("replay %d produced an empty Lamport diagram", i)
		}
		diagrams = append(diagrams, d)
		ra.Close()
		rb.Close()
	}
	for i := 1; i < len(diagrams); i++ {
		if diagrams[i] != diagrams[0] {
			t.Fatalf("replay %d diverged from replay 0:\n--- replay 0 ---\n%s\n--- replay %d ---\n%s",
				i, diagrams[0], i, diagrams[i])
		}
	}
}

// TestReplayReproducesInjectedFailure pins the debugging contract: a run
// that failed under injected faults fails the same way on replay, with no
// injector installed.
func TestReplayReproducesInjectedFailure(t *testing.T) {
	a, b, net := replayNodes(t)
	// Sever the request path completely: every A→B application frame is
	// lost, so the ask burns its whole retry budget.
	net.SetInjector(faults.Drop(3, 1.0, func(op faults.Op) bool {
		return op.Actor == "A->B" && op.Msg != "dial"
	}))
	rec := net.Record(3)
	_, recErr := runEchoWorkload(a, b, 1)
	if !errors.Is(recErr, actors.ErrAskTimeout) {
		t.Fatalf("record run error = %v, want %v", recErr, actors.ErrAskTimeout)
	}
	if rec.Drops() == 0 {
		t.Fatal("record run captured no drops")
	}

	ra, rb, rnet := replayNodes(t)
	rnet.Replay(rec.Snapshot())
	_, repErr := runEchoWorkload(ra, rb, 1)
	if !errors.Is(repErr, actors.ErrAskTimeout) {
		t.Fatalf("replay error = %v, want the recorded failure %v", repErr, actors.ErrAskTimeout)
	}
}

// TestReplayerGate pins the per-link schedule semantics that keep a
// slightly divergent re-execution live: fates are consumed per link in
// recorded order, a link past its schedule repeats its final recorded fate
// (a severed link stays severed, a healthy one stays healthy), and a link
// the recording never saw delivers.
func TestReplayerGate(t *testing.T) {
	rec := NewWireRecording(1)
	rec.add(WireEntry{Src: "A", Dst: "B", Drop: true})
	rec.add(WireEntry{Src: "A", Dst: "B"})
	rec.add(WireEntry{Src: "C", Dst: "D", Drop: true})
	rp := NewReplayer(rec)

	if drop := rp.gate("X", "Y"); drop {
		t.Fatal("unscheduled link dropped; want fail-open delivery")
	}
	if drop := rp.gate("A", "B"); !drop {
		t.Fatal("first A→B fate should be the recorded drop")
	}
	if drop := rp.gate("A", "B"); drop {
		t.Fatal("second A→B fate should be the recorded delivery")
	}
	if drop := rp.gate("A", "B"); drop {
		t.Fatal("exhausted A→B should extend its final fate (delivery)")
	}
	if drop := rp.gate("C", "D"); !drop {
		t.Fatal("first C→D fate should be the recorded drop")
	}
	if drop := rp.gate("C", "D"); !drop {
		t.Fatal("exhausted C→D should extend its final fate (drop)")
	}
	if c, n := rp.Pos(); c != 3 || n != 3 {
		t.Fatalf("Pos = %d/%d, want 3/3 (extended fates do not advance it)", c, n)
	}
}

// TestIsMsgFrame pins the frame classifier across both payload modes: it
// reads only the binary header, so a self-contained message frame (what
// record/replay traffic carries) classifies and yields its content stamp
// exactly like a session frame.
func TestIsMsgFrame(t *testing.T) {
	msg := appendEnvelope(nil, &WireEnvelope{Kind: FrameMsg, To: "x"})
	if !isMsgFrame(msg) {
		t.Fatal("FrameMsg not classified as a message")
	}
	hb := appendEnvelope(nil, &WireEnvelope{Kind: FrameHeartbeat})
	if isMsgFrame(hb) {
		t.Fatal("heartbeat classified as a message")
	}
	selfMsg, err := newEncSession().appendFrame(nil, &WireEnvelope{
		Kind: FrameMsg, flags: frameFlagSelfContained, To: "x", Content: 77, Payload: tPing{N: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, content := msgFrameInfo(selfMsg); !ok || content != 77 {
		t.Fatalf("self-contained FrameMsg classified as (%v, %d), want (true, 77)", ok, content)
	}
	hello := appendEnvelope(nil, &WireEnvelope{Kind: FrameHello, Seq: wireProtocol})
	if isMsgFrame(hello) {
		t.Fatal("hello classified as a message")
	}
	if isMsgFrame(nil) || isMsgFrame([]byte{0x01, 0x02, 0x03}) {
		t.Fatal("garbage classified as a message")
	}
}
