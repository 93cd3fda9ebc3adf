package remote

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/faults"
)

// TestCreditGatingStallsSender pins the core flow-control invariant: a
// receiver whose consumer has stopped draining bounds the sender to the
// credit window, no matter how deep the sender's outbox is. The receiver's
// mailbox is unbounded — the bound must come from withheld credit, not from
// MailboxCap — and once the consumer resumes, heartbeat-forced grants
// restart the flow without any reconnect.
func TestCreditGatingStallsSender(t *testing.T) {
	const window = 8
	a, b, _ := twoMemNodes(t, func(c *Config) {
		c.CreditWindow = window
		c.OutboxCap = 512
	})

	release := make(chan struct{})
	var handled atomic.Int64
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if _, ok := msg.(tPing); ok {
			<-release
			handled.Add(1)
		}
	})
	b.Register("sink", sink)
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Wait for the hello-ack before flooding, so the window it grants is
	// the one under test.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never received its hello-ack")
		}
		time.Sleep(time.Millisecond)
	}

	const offered = 200
	for i := 0; i < offered; i++ {
		ref.Tell(tPing{N: i})
	}
	// Let the sender run into the window. Heartbeats tick every 5ms, so
	// 100ms is many grant opportunities — if gating were broken, all 200
	// would land in the (unbounded) mailbox well within this. The analytic
	// ceiling is just under two windows: the last grant can be issued with
	// the backlog at window−1, allowing one more window into flight.
	time.Sleep(100 * time.Millisecond)
	if size := b.System().MailboxSize(sink); size > 2*window {
		t.Fatalf("stalled receiver holds %d queued messages, want ≤ 2×window = %d", size, 2*window)
	}
	if st := a.Stats(); st.CreditStalls == 0 {
		t.Fatalf("sender never stalled on credit exhaustion: %+v", st)
	}

	close(release)
	deadline = time.Now().Add(10 * time.Second)
	for handled.Load() < offered {
		if time.Now().After(deadline) {
			t.Fatalf("flow never resumed after drain: %d/%d handled", handled.Load(), offered)
		}
		time.Sleep(time.Millisecond)
	}
	if st := a.Stats(); st.CreditFramesRecv == 0 {
		t.Fatalf("sender drained %d messages without ever receiving a credit grant: %+v", offered, st)
	}
}

// TestCreditedReconnect pins that credit state is connection-scoped: after
// the peer dies and restarts, the fresh connection starts from a clean
// window and keeps delivering well past one window's worth —
// i.e. no stale consumed/granted counters survive the old session.
func TestCreditedReconnect(t *testing.T) {
	const window = 4
	net := NewMemNetwork()
	mkCfg := func(addr string) Config {
		return Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  30 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
			CreditWindow:      window,
			Seed:              1,
		}
	}
	a, err := NewNode(mkCfg("A"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	got := make(chan int, 1024)
	serveSink := func(n *Node) {
		sink := n.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
			if p, ok := msg.(tPing); ok {
				select {
				case got <- p.N:
				default:
				}
			}
		})
		n.Register("sink", sink)
	}
	b, err := NewNode(mkCfg("B"))
	if err != nil {
		t.Fatal(err)
	}
	serveSink(b)

	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ref.Tell(tPing{N: n})
			select {
			case v := <-got:
				if v == n {
					return
				}
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("message %d never arrived", n)
			}
		}
	}
	send(1)
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first connection never received its hello-ack")
		}
		time.Sleep(time.Millisecond)
	}

	b.Close()
	b2, err := NewNode(mkCfg("B"))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	serveSink(b2)
	send(2)

	deadline = time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("expected a fresh hello-ack after reconnect, got %d", a.Stats().CreditedConns)
		}
		ref.Tell(tPing{N: 3})
		time.Sleep(time.Millisecond)
	}
	// Push several windows' worth through the fresh connection: if any
	// stale consumed/granted state leaked across, the link would wedge
	// within one window.
	for i := 0; i < window*5; i++ {
		send(100 + i)
	}
}

// TestSustainedOverloadChaos is the end-to-end acceptance test for the
// overload story: a sender offering ~4× the receiver's service rate, with a
// fault window injecting wire delays during the spike, must (a) keep the
// receiver's queue bounded by the credit window, (b) keep concurrent Asks
// bounded — fast ErrOverloaded or a reply, never an unbounded hang, (c)
// account for every offered message as handled or deliberately shed, with
// nothing silently lost, and (d) recover baseline throughput after the
// spike ends. Runs under -race in CI (the overload-smoke job).
func TestSustainedOverloadChaos(t *testing.T) {
	const (
		window    = 256
		outboxCap = 128
		sinkDelay = 100 * time.Microsecond // service rate ≈ 10k msgs/sec
	)
	net := NewMemNetwork()
	// Wire delays only — drops would make the delivery ledger inexact.
	// The Window gate holds the injector closed outside the spike phase.
	chaos := faults.NewWindow(faults.Delay(7, 0.05, time.Millisecond, faults.AtSite(faults.SiteWire)))
	net.SetInjector(chaos)

	mk := func(addr string) *Node {
		n, err := NewNode(Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: 5 * time.Millisecond,
			// Generous: injected delays plus -race scheduling must never
			// tear the link down, or in-flight frames would be lost and
			// the ledger would not balance.
			HeartbeatTimeout: 500 * time.Millisecond,
			ReconnectMin:     time.Millisecond,
			ReconnectMax:     20 * time.Millisecond,
			CreditWindow:     window,
			OutboxCap:        outboxCap,
			Seed:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk("A"), mk("B")
	defer a.Close()
	defer b.Close()

	var sinkSeen atomic.Int64
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(tPing); ok {
			sinkSeen.Add(1)
			// Spin rather than sleep: timers round a sub-millisecond
			// Sleep up to about 1 ms on some hosts, which would cut the
			// service rate to ~1k msgs/sec.
			for start := time.Now(); time.Since(start) < sinkDelay; {
			}
			if p.N == -1 {
				ctx.Reply(tPong{N: -1})
			}
		}
	})
	b.Register("sink", sink)
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never received its hello-ack")
		}
		time.Sleep(time.Millisecond)
	}

	// offered counts every tPing aimed at the sink — paced floods and ask
	// probes alike — so the conservation ledger can be exact. Atomic: the
	// asker goroutine contributes concurrently with the flood.
	var offered atomic.Int64
	// pacedFlood offers `count` messages at one message per `pace`,
	// busy-waiting in small sleeps so the offered rate is accurate even
	// under -race.
	pacedFlood := func(count int, pace time.Duration) {
		start := time.Now()
		for i := 0; i < count; i++ {
			for time.Since(start) < time.Duration(i)*pace {
				time.Sleep(10 * time.Microsecond)
			}
			ref.Tell(tPing{N: i})
			offered.Add(1)
		}
	}
	settle := func(phase string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			shed := a.System().DeadLettersOf(actors.DLOverloaded) +
				b.System().DeadLettersOf(actors.DLOverloaded)
			if sinkSeen.Load()+shed >= offered.Load() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: ledger never balanced: offered=%d seen=%d shed=%d",
					phase, offered.Load(), sinkSeen.Load(), shed)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1 — baseline: offer exactly the service rate.
	base := sinkSeen.Load()
	baseStart := time.Now()
	pacedFlood(1000, sinkDelay)
	settle("baseline")
	rate1 := float64(sinkSeen.Load()-base) / time.Since(baseStart).Seconds()

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// Phase 2 — spike: 4× the service rate with wire chaos open, while a
	// concurrent asker probes end-to-end latency.
	chaos.Open()
	askDone := make(chan struct{})
	askStop := make(chan struct{})
	var askDurations []time.Duration
	var overloadedAsks, okAsks, otherAsks int
	go func() {
		defer close(askDone)
		for {
			select {
			case <-askStop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			s := time.Now()
			offered.Add(1) // the probe is a tPing at the same sink
			_, err := actors.Ask(a.System(), ref, tPing{N: -1}, 250*time.Millisecond)
			askDurations = append(askDurations, time.Since(s))
			switch err {
			case nil:
				okAsks++
			case actors.ErrOverloaded:
				overloadedAsks++
			default:
				otherAsks++
			}
		}
	}()
	var maxQueue int
	spikeDone := make(chan struct{})
	go func() {
		defer close(spikeDone)
		for {
			select {
			case <-askStop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if q := b.System().MailboxSize(sink); q > maxQueue {
				maxQueue = q
			}
		}
	}()
	pacedFlood(8000, sinkDelay/4)
	close(askStop)
	<-askDone
	<-spikeDone
	settle("spike")
	chaos.Close()

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)

	// (a) the receiver's queue stayed bounded by the credit protocol even
	// though its mailbox is unbounded: a grant is issued only while the
	// backlog is under one window, so ~2 windows is the analytic ceiling.
	if maxQueue > 2*window+16 {
		t.Fatalf("receiver queue reached %d during a 4x overload spike, want ≤ %d", maxQueue, 2*window+16)
	}
	if int64(after.HeapAlloc)-int64(before.HeapAlloc) > 64<<20 {
		t.Fatalf("heap grew %d bytes across the spike, want < 64MiB", after.HeapAlloc-before.HeapAlloc)
	}

	// (b) asks stayed bounded: every probe either answered, failed fast
	// with ErrOverloaded, or hit its own 250ms deadline — p99 must sit
	// under deadline + scheduling slop.
	if len(askDurations) == 0 {
		t.Fatal("asker recorded no probes")
	}
	sort.Slice(askDurations, func(i, j int) bool { return askDurations[i] < askDurations[j] })
	p99 := askDurations[len(askDurations)*99/100]
	if p99 > 450*time.Millisecond {
		t.Fatalf("ask p99 = %s during overload, want ≤ 450ms (ok=%d overloaded=%d other=%d)",
			p99, okAsks, overloadedAsks, otherAsks)
	}
	if overloadedAsks == 0 {
		t.Fatalf("no ask failed fast with ErrOverloaded during a 4x spike (ok=%d other=%d)", okAsks, otherAsks)
	}

	// (c) conservation: every offered message is either handled or shed
	// into the overload deadletter ledger; nothing vanished. Preconditions
	// for exactness: no wire drops and no link teardown.
	if d := net.Dropped(); d != 0 {
		t.Fatalf("wire dropped %d frames; ledger requires a drop-free run", d)
	}
	if hb := a.Stats().HeartbeatTimeouts + b.Stats().HeartbeatTimeouts; hb != 0 {
		t.Fatalf("%d heartbeat timeouts during the run; ledger requires the link to stay up", hb)
	}
	shed := a.System().DeadLettersOf(actors.DLOverloaded) + b.System().DeadLettersOf(actors.DLOverloaded)
	if sinkSeen.Load()+shed != offered.Load() {
		t.Fatalf("conservation violated: offered=%d != seen=%d + shed=%d", offered.Load(), sinkSeen.Load(), shed)
	}
	st := a.Stats()
	if st.CreditStalls == 0 {
		t.Fatalf("sender never hit the credit window during a 4x spike: %+v", st)
	}
	if shed == 0 {
		t.Fatal("nothing was shed during a 4x overload spike")
	}

	// (d) recovery: back at the baseline offered rate, throughput returns
	// to within 10% of the pre-spike measurement.
	base = sinkSeen.Load()
	recStart := time.Now()
	pacedFlood(1000, sinkDelay)
	settle("recovery")
	rate2 := float64(sinkSeen.Load()-base) / time.Since(recStart).Seconds()
	t.Logf("baseline %.0f msgs/sec, post-spike %.0f msgs/sec, maxQueue=%d, shed=%d, ask p99=%s (ok=%d overloaded=%d other=%d)",
		rate1, rate2, maxQueue, shed, p99, okAsks, overloadedAsks, otherAsks)
	if rate2 < 0.9*rate1 {
		t.Fatalf("throughput did not recover: %.0f msgs/sec after spike vs %.0f baseline", rate2, rate1)
	}
}

// lossyTransport wraps a Transport so that every frame its connections send
// — dialed or accepted — is first offered to lose, and silently discarded
// when lose returns true: a transport that drops exactly the frames a test
// picks, by content.
type lossyTransport struct {
	Transport
	lose func(frame []byte) bool
}

func (t lossyTransport) Dial(addr string) (Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return lossyConn{c, t.lose}, nil
}

func (t lossyTransport) Listen(addr string) (Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return lossyListener{l, t.lose}, nil
}

type lossyListener struct {
	Listener
	lose func(frame []byte) bool
}

func (l lossyListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return lossyConn{c, l.lose}, nil
}

type lossyConn struct {
	Conn
	lose func(frame []byte) bool
}

func (c lossyConn) Send(frame []byte) error {
	if c.lose(frame) {
		return nil
	}
	return c.Conn.Send(frame)
}

// creditPair builds sender A and receiver B with a small credit window, the
// transports wrapped by ta and tb, and returns the proxy to a sink on B plus
// a counter of the tPings it handled.
func creditPair(t *testing.T, window int, ta, tb func(Transport) Transport) (a, b *Node, ref *actors.Ref, got *atomic.Int64) {
	t.Helper()
	a, b, _ = twoMemNodes(t, func(c *Config) {
		c.CreditWindow = window
		if c.ListenAddr == "A" {
			c.Transport = ta(c.Transport)
		} else {
			c.Transport = tb(c.Transport)
		}
	})
	got = new(atomic.Int64)
	b.Register("sink", b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if _, ok := msg.(tPing); ok {
			got.Add(1)
		}
	}))
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	return a, b, ref, got
}

func plainTransport(tr Transport) Transport { return tr }

// TestCreditWindowSurvivesDroppedMessages pins that a message the transport
// loses does not leak credit. The sender counts a dropped FrameMsg as
// consumed, but the receiver never sees it; without the written-message
// count on heartbeats every drop shrank the window for good, and after a
// window's worth of drops the link parked forever — heartbeats still
// flowing, so nothing timed out or reconnected. Here every third message is
// lost for four windows' worth of drops; the link must keep writing, and
// once the loss stops every later message must arrive, on the same
// connection.
func TestCreditWindowSurvivesDroppedMessages(t *testing.T) {
	const window = 8
	var lossy atomic.Bool
	var msgs, drops atomic.Int64
	dropper := func(tr Transport) Transport {
		return lossyTransport{tr, func(frame []byte) bool {
			if !lossy.Load() || !isMsgFrame(frame) {
				return false
			}
			if msgs.Add(1)%3 == 0 {
				drops.Add(1)
				return true
			}
			return false
		}}
	}
	a, _, ref, got := creditPair(t, window, dropper, plainTransport)
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Stats().CreditedConns > 0 })

	lossy.Store(true)
	const lossyTells = 12 * window // every third lost: 4 windows' worth of drops
	for i := 0; i < lossyTells; i++ {
		ref.Tell(tPing{N: i})
	}
	// Without the heartbeat count the link parks after 24 of these: three
	// windows, eight drops.
	waitFor(t, 5*time.Second, func() bool { return msgs.Load() >= lossyTells })
	lossy.Store(false)
	waitFor(t, 5*time.Second, func() bool { return got.Load() == lossyTells-drops.Load() })

	base := got.Load()
	for i := 0; i < 50; i++ {
		ref.Tell(tPing{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load()-base == 50 })
	if st := a.Stats(); st.Reconnects != 0 || st.HeartbeatTimeouts != 0 {
		t.Fatalf("the window healed by reconnecting, not by the heartbeat count: %+v", st)
	}
}

// TestLostGrantHealsOnHeartbeat drops the receiver's hello-ack — the
// connection's first grant — and every FrameCredit after it until the
// sender has parked. The heartbeat-forced grant resends the current
// cumulative grant even when it has not moved, so the sender resumes within
// a heartbeat instead of waiting for a grant that was already sent.
func TestLostGrantHealsOnHeartbeat(t *testing.T) {
	const window = 8
	var lossy atomic.Bool
	lossy.Store(true)
	grantDropper := func(tr Transport) Transport {
		return lossyTransport{tr, func(frame []byte) bool {
			k := FrameKind(frame[0])
			return lossy.Load() && (k == FrameHelloAck || k == FrameCredit)
		}}
	}
	a, _, ref, got := creditPair(t, window, plainTransport, grantDropper)
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		ref.Tell(tPing{N: i})
	}
	// Only the hello's implicit one-message grant gets through.
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 && a.Stats().CreditStalls > 0 })
	time.Sleep(20 * time.Millisecond) // several heartbeats, all grants lost
	if n := got.Load(); n != 1 {
		t.Fatalf("%d messages delivered with every grant lost, want 1", n)
	}
	lossy.Store(false)
	waitFor(t, 5*time.Second, func() bool { return got.Load() == window })
	if st := a.Stats(); st.Reconnects != 0 {
		t.Fatalf("healed by reconnecting: %+v", st)
	}
}

// quietCreditPair is twoMemNodes with a small credit window and heartbeats
// far longer than any test: no heartbeat-forced grant can fire, so a
// stalled sender resumes only through a grant the receiver sends on its
// own. It returns the nodes, connected and credited.
func quietCreditPair(t *testing.T, window int) (a, b *Node) {
	t.Helper()
	a, b, _ = twoMemNodes(t, func(c *Config) {
		c.CreditWindow = window
		c.OutboxCap = 512
		c.HeartbeatInterval = time.Hour
		c.HeartbeatTimeout = 2 * time.Hour
	})
	return a, b
}

// TestCreditReopensOnDequeue: a sender stalled on a full window resumes
// once the sink drains, with no heartbeat in the test's lifetime — the
// reopening grant is sent by the worker whose dequeue drops the
// connection's pending count below the window.
func TestCreditReopensOnDequeue(t *testing.T) {
	const window = 8
	a, b := quietCreditPair(t, window)
	release := make(chan struct{})
	var handled atomic.Int64
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if _, ok := msg.(tPing); ok {
			<-release
			handled.Add(1)
		}
	})
	b.Register("sink", sink)
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Stats().CreditedConns > 0 })

	const offered = 200
	for i := 0; i < offered; i++ {
		ref.Tell(tPing{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return a.Stats().CreditStalls > 0 })
	if size := b.System().MailboxSize(sink); size > 2*window {
		t.Fatalf("stalled receiver holds %d queued messages, want ≤ 2×window = %d", size, 2*window)
	}
	close(release)
	waitFor(t, 10*time.Second, func() bool { return handled.Load() == offered })
	if st := b.Stats(); st.CreditFramesSent == 0 {
		t.Fatalf("%d messages crossed a %d-message window without a credit frame: %+v", offered, window, st)
	}
	if st := a.Stats(); st.Reconnects != 0 || st.HeartbeatTimeouts != 0 {
		t.Fatalf("flow resumed by reconnecting: %+v", st)
	}
}

// TestCreditStoppedSinkReleasesWindow stops the sink mid-burst while its
// mailbox holds a full window: the backlog deadletters at teardown, and
// each deadletter must give its credit back, or the window stays shut for
// good. Every offered message must then cross the link — to the dead sink's
// deadletters — and a message to a live actor behind them must arrive.
func TestCreditStoppedSinkReleasesWindow(t *testing.T) {
	const window = 8
	a, b := quietCreditPair(t, window)
	release := make(chan struct{})
	var handled atomic.Int64
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		<-release
		handled.Add(1)
		ctx.Stop() // the queued backlog deadletters
	})
	b.Register("sink", sink)
	probed := make(chan struct{})
	b.Register("probe", b.System().MustSpawn("probe", func(ctx *actors.Context, msg any) { close(probed) }))
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := a.RefFor("probe@B")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Stats().CreditedConns > 0 })

	const offered = 200
	for i := 0; i < offered; i++ {
		ref.Tell(tPing{N: i})
	}
	probe.Tell(tPing{N: -1})
	waitFor(t, 5*time.Second, func() bool { return a.Stats().CreditStalls > 0 })
	close(release)
	select {
	case <-probed:
	case <-time.After(10 * time.Second):
		t.Fatalf("link wedged after the sink stopped: %+v", a.Stats())
	}
	// The probe came in behind every offered frame; the last deadletters
	// may still be in the sink's teardown.
	waitFor(t, 5*time.Second, func() bool { return handled.Load()+b.System().DeadLetters() >= offered })
	if got := handled.Load() + b.System().DeadLetters(); got != offered {
		t.Fatalf("handled %d + deadlettered %d = %d, want all %d offered",
			handled.Load(), b.System().DeadLetters(), got, offered)
	}
}
