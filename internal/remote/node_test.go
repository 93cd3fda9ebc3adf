package remote

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// Wire-safe test payloads (gob needs exported fields and registration).
type tPing struct{ N int }
type tPong struct{ N int }

func init() {
	RegisterType(tPing{})
	RegisterType(tPong{})
}

// twoMemNodes builds nodes "A" and "B" on one MemNetwork with fast
// heartbeats, returning them plus the network. Caller closes the nodes.
func twoMemNodes(t *testing.T, cfg func(*Config)) (a, b *Node, net *MemNetwork) {
	t.Helper()
	net = NewMemNetwork()
	mk := func(addr string) *Node {
		c := Config{
			ListenAddr:        addr,
			Transport:         net.Endpoint(addr),
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  30 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      20 * time.Millisecond,
			Seed:              1,
		}
		if cfg != nil {
			cfg(&c)
		}
		n, err := NewNode(c)
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

func TestTellCrossesNodes(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)

	got := make(chan tPing, 1)
	echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(tPing); ok {
			got <- p
		}
	})
	b.Register("echo", echo)

	ref, err := a.RefFor("echo@" + b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	ref.Tell(tPing{N: 42})
	select {
	case p := <-got:
		if p.N != 42 {
			t.Fatalf("got %+v, want N=42", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never crossed the wire")
	}
	if a.Stats().Sent == 0 || b.Stats().Received == 0 {
		t.Fatalf("stats did not move: a=%+v b=%+v", a.Stats(), b.Stats())
	}
}

func TestAskCrossesNodesAndReplyRoutesBack(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)

	echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(tPing); ok {
			ctx.Reply(tPong{N: p.N + 1})
		}
	})
	b.Register("echo", echo)

	ref, err := a.RefFor("echo@" + b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := actors.Ask(a.System(), ref, tPing{N: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := r.(tPong); !ok || p.N != 2 {
		t.Fatalf("Ask = %#v, want tPong{2}", r)
	}
}

func TestUnreachablePeerDeadlettersWithoutBlocking(t *testing.T) {
	net := NewMemNetwork()
	var dead atomic.Int64
	sys := actors.NewSystem(actors.Config{
		DeadLetter: func(to *actors.Ref, e actors.Envelope) { dead.Add(1) },
	})
	defer sys.Shutdown()
	n, err := NewNode(Config{
		ListenAddr:   "A",
		Transport:    net.Endpoint("A"),
		System:       sys,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ref, err := n.RefFor("nobody@nowhere")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh link buffers sends while the first dial is in flight; once that
	// dial fails the link is down and every send deadletters. Wait for the
	// transition, then verify a burst deadletters in full without blocking.
	waitFor(t, 5*time.Second, func() bool {
		ref.Tell(tPing{N: -1})
		return sys.DeadLettersOf(actors.DLRemote) > 0
	})
	base := sys.DeadLettersOf(actors.DLRemote)
	deadBase := dead.Load()
	start := time.Now()
	for i := 0; i < 100; i++ {
		ref.Tell(tPing{N: i})
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("sends to an unreachable peer took %s; must not block", elapsed)
	}
	if got := sys.DeadLettersOf(actors.DLRemote) - base; got != 100 {
		t.Fatalf("DLRemote count moved by %d, want 100", got)
	}
	if got := dead.Load() - deadBase; got != 100 {
		t.Fatalf("deadletter hook saw %d messages, want 100", got)
	}
}

func TestUnknownNameDeadlettersOnReceiver(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)
	ref, err := a.RefFor("ghost@" + b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	ref.Tell(tPing{N: 7})
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().RemoteDeadLetters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never counted the remote deadletter")
		}
		time.Sleep(time.Millisecond)
	}
	if got := b.System().DeadLettersOf(actors.DLRemote); got == 0 {
		t.Fatal("receiver system's DLRemote count did not move")
	}
}

func TestPartitionHealsAndLinkReconnects(t *testing.T) {
	a, b, net := twoMemNodes(t, nil)

	var received atomic.Int64
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) { received.Add(1) })
	b.Register("sink", sink)

	ref, err := a.RefFor("sink@" + b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	ref.Tell(tPing{N: 0})
	waitFor(t, 5*time.Second, func() bool { return received.Load() == 1 })

	part := faults.NewPartition()
	part.Cut("A", "B")
	net.SetInjector(part)
	// Heartbeat acks now vanish into the partition: the link must declare
	// the peer dead, go down (redials are refused while cut), and start
	// deadlettering sends instead of blocking.
	waitFor(t, 5*time.Second, func() bool { return a.Stats().HeartbeatTimeouts > 0 })
	waitFor(t, 5*time.Second, func() bool {
		ref.Tell(tPing{N: 1})
		return a.System().DeadLettersOf(actors.DLRemote) > 0
	})

	part.HealAll()
	// The link redials; traffic flows again.
	waitFor(t, 5*time.Second, func() bool {
		ref.Tell(tPing{N: 2})
		return received.Load() >= 2
	})
	if a.Stats().Reconnects == 0 {
		t.Fatal("expected at least one reconnect after the partition healed")
	}
}

func TestNodeMetricsRegistered(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)
	echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) { ctx.Reply(msg) })
	b.Register("echo", echo)
	ref, _ := a.RefFor("echo@" + b.Addr())
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := actors.Ask(a.System(), ref, tPing{N: 9}, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg, "nodeA")
	a.System().RegisterMetrics(reg, "sysA")
	if v, ok := reg.Get("nodeA.wire.sent"); !ok || v == 0 {
		t.Fatalf("nodeA.wire.sent = %d,%v; want nonzero", v, ok)
	}
	if _, ok := reg.Get("sysA.deadletters.remote"); !ok {
		t.Fatal("sysA.deadletters.remote gauge missing")
	}
	if len(reg.Snapshot()) < 10 {
		t.Fatalf("snapshot too small: %v", reg.Snapshot())
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProxyRefusesControlMessages: a poison pill must not cross the wire.
func TestProxyRefusesControlMessages(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)
	echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {})
	b.Register("echo", echo)
	ref, _ := a.RefFor("echo@" + b.Addr())
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	before := a.System().DeadLettersOf(actors.DLRemote)
	a.System().Stop(ref) // control: deadletters locally instead of crossing
	waitFor(t, 2*time.Second, func() bool {
		return a.System().DeadLettersOf(actors.DLRemote) == before+1
	})
	if !b.System().Alive(echo) {
		t.Fatal("remote Stop must not kill the remote actor")
	}
}

// TestManyNamesOneLink exercises several registered names sharing a link.
func TestManyNamesOneLink(t *testing.T) {
	a, b, _ := twoMemNodes(t, nil)
	const names = 8
	got := make(chan string, names)
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("svc-%d", i)
		ref := b.System().MustSpawn(name, func(ctx *actors.Context, msg any) {
			got <- name
		})
		b.Register(name, ref)
	}
	if err := a.Connect(b.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < names; i++ {
		ref, err := a.RefFor(fmt.Sprintf("svc-%d@%s", i, b.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		ref.Tell(tPing{N: i})
	}
	seen := map[string]bool{}
	for i := 0; i < names; i++ {
		select {
		case n := <-got:
			seen[n] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d names reached", len(seen), names)
		}
	}
	if len(seen) != names {
		t.Fatalf("duplicate routing: %v", seen)
	}
}

// TestHelloProtocolMismatchRefused dials a node through the raw Transport
// and speaks the hello by hand: a hello carrying wireProtocol is answered
// with the hello-ack (the first credit grant), while one carrying any other
// protocol gets no answer — the receiver counts a decode error and closes
// the connection.
func TestHelloProtocolMismatchRefused(t *testing.T) {
	net := NewMemNetwork()
	b, err := NewNode(Config{ListenAddr: "B", Transport: net.Endpoint("B"), CreditWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	recv := func(c Conn) ([]byte, error) {
		type result struct {
			frame []byte
			err   error
		}
		ch := make(chan result, 1)
		go func() {
			f, err := c.Recv()
			ch <- result{f, err}
		}()
		select {
		case r := <-ch:
			return r.frame, r.err
		case <-time.After(5 * time.Second):
			t.Fatal("connection neither answered nor closed")
			return nil, nil
		}
	}
	hello := func(protocol uint64) Conn {
		c, err := net.Endpoint("X").Dial("B")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(appendEnvelope(nil, &WireEnvelope{Kind: FrameHello, FromAddr: "X", Seq: protocol})); err != nil {
			t.Fatal(err)
		}
		return c
	}

	good := hello(wireProtocol)
	defer good.Close()
	frame, err := recv(good)
	if err != nil {
		t.Fatalf("matching hello: %v", err)
	}
	var ack WireEnvelope
	if _, err := decodeEnvelopeInto(&ack, frame, nil); err != nil || ack.Kind != FrameHelloAck || ack.Seq != 64 {
		t.Fatalf("matching hello answered with %+v (err %v), want a hello-ack granting 64", ack, err)
	}

	bad := hello(wireProtocol + 1)
	defer bad.Close()
	if frame, err := recv(bad); err == nil {
		t.Fatalf("mismatched hello answered with %d bytes, want a closed connection", len(frame))
	}
	if n := b.Stats().DecodeErrors; n != 1 {
		t.Fatalf("DecodeErrors = %d after one mismatched hello, want 1", n)
	}
}
