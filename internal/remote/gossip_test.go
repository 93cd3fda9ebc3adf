package remote

import (
	"sync"
	"testing"
	"time"

	"repro/internal/actors"
)

// chatterHook is a test GossipHook: every tick it offers one digest naming
// itself, and it remembers every digest it hears.
type chatterHook struct {
	self string

	mu    sync.Mutex
	heard map[string][]string // from addr → digests received
}

func newChatterHook(self string) *chatterHook {
	return &chatterHook{self: self, heard: map[string][]string{}}
}

func (h *chatterHook) GossipDigest(peer string) []byte { return []byte("digest-from-" + h.self) }

func (h *chatterHook) OnGossip(from string, digest []byte) {
	h.mu.Lock()
	h.heard[from] = append(h.heard[from], string(digest))
	h.mu.Unlock()
}

func (h *chatterHook) from(addr string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.heard[addr]...)
}

// TestGossipNegotiationAndExchange: two nodes with gossip hooks exchange
// membership digests on the heartbeat cadence, in both directions (each
// node's dial-out link carries its own gossip).
func TestGossipNegotiationAndExchange(t *testing.T) {
	net := NewMemNetwork()
	hookA, hookB := newChatterHook("A"), newChatterHook("B")
	mkCfg := func(addr string, hook GossipHook) Config {
		return Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: 2 * time.Millisecond,
			Gossip:            hook,
			Seed:              1,
		}
	}
	a, err := NewNode(mkCfg("A", hookA))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(mkCfg("B", hookB))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect("A", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(hookB.from("A")) == 0 || len(hookA.from("B")) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gossip never flowed both ways: B heard %v from A, A heard %v from B",
				hookB.from("A"), hookA.from("B"))
		}
		time.Sleep(time.Millisecond)
	}
	if got := hookB.from("A")[0]; got != "digest-from-A" {
		t.Fatalf("B heard %q from A, want digest-from-A", got)
	}
	if got := hookA.from("B")[0]; got != "digest-from-B" {
		t.Fatalf("A heard %q from B, want digest-from-B", got)
	}
	if st := a.Stats(); st.GossipFramesSent == 0 || st.GossipFramesRecv == 0 {
		t.Fatalf("gossip counters did not move: %+v", st)
	}
}

// TestGossipInteropWithNonClusterPeer: a node with a gossip hook sends its
// digests to a peer without one; the hookless peer ignores them, and
// messages keep flowing on the same connection.
func TestGossipInteropWithNonClusterPeer(t *testing.T) {
	net := NewMemNetwork()
	hook := newChatterHook("A")
	a, err := NewNode(Config{
		ListenAddr: "A", Transport: net.Endpoint("A"),
		HeartbeatInterval: 2 * time.Millisecond,
		// Generous, so a reconnect can only mean B refused the gossip.
		HeartbeatTimeout: time.Second,
		Gossip:           hook, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(Config{
		ListenAddr: "B", Transport: net.Endpoint("B"),
		HeartbeatInterval: 2 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan tPing, 16)
	b.Register("sink", b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(tPing); ok {
			got <- p
		}
	}))
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().GossipFramesSent < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("gossip node sent only %d digests", a.Stats().GossipFramesSent)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		ref.Tell(tPing{N: i})
		select {
		case p := <-got:
			if p.N != i {
				t.Fatalf("got %+v, want N=%d", p, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never crossed a link carrying ignored gossip", i)
		}
	}
	if st := b.Stats(); st.GossipFramesRecv != 0 || st.DecodeErrors != 0 {
		t.Fatalf("hookless peer handled gossip: %+v", st)
	}
	if st := a.Stats(); st.Reconnects != 0 {
		t.Fatalf("link reconnected %d times; ignored gossip must not disturb it", st.Reconnects)
	}
}

// TestOnLinkStateTransitions: the link-state callback reports up exactly
// once per liveness transition — up on hello, down when the peer dies, up
// again on reconnect — with no duplicate reports across redial churn.
func TestOnLinkStateTransitions(t *testing.T) {
	net := NewMemNetwork()
	var mu sync.Mutex
	var transitions []bool
	a, err := NewNode(Config{
		ListenAddr: "A", Transport: net.Endpoint("A"),
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Millisecond,
		ReconnectMin:      time.Millisecond,
		ReconnectMax:      2 * time.Millisecond,
		OnLinkState: func(peer string, up bool) {
			mu.Lock()
			transitions = append(transitions, up)
			mu.Unlock()
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	snap := func() []bool {
		mu.Lock()
		defer mu.Unlock()
		return append([]bool(nil), transitions...)
	}
	waitLen := func(n int) []bool {
		deadline := time.Now().Add(5 * time.Second)
		for {
			s := snap()
			if len(s) >= n {
				return s
			}
			if time.Now().After(deadline) {
				t.Fatalf("saw %v, want %d transitions", s, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Peer not listening yet: the first dial failure must report down once,
	// and keep not repeating it across redial churn.
	a.linkTo("B")
	got := waitLen(1)
	if got[0] != false {
		t.Fatalf("first transition = up, want down (dial against absent peer)")
	}
	time.Sleep(20 * time.Millisecond) // several failed redials
	if s := snap(); len(s) != 1 {
		t.Fatalf("redial churn repeated the down report: %v", s)
	}

	// Peer appears: exactly one up report.
	b, err := NewNode(Config{ListenAddr: "B", Transport: net.Endpoint("B"), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got = waitLen(2)
	if got[1] != true {
		t.Fatalf("transitions = %v, want [down up]", got)
	}

	// Peer dies: one down report (from the dead connection or the failed
	// redial, whichever lands first — still exactly one).
	_ = b.Close()
	got = waitLen(3)
	if got[2] != false {
		t.Fatalf("transitions = %v, want [down up down]", got)
	}
	time.Sleep(20 * time.Millisecond)
	if s := snap(); len(s) != 3 {
		t.Fatalf("peer death reported more than once: %v", s)
	}
}
