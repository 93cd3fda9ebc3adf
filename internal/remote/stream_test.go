package remote

import (
	"testing"
	"time"

	"repro/internal/actors"
)

// TestStreamSessionRoundTrip pushes a sequence of frames through one
// enc/dec session pair — the way a live connection does — and checks every
// payload survives, including after the first frame has paid the type
// descriptor cost.
func TestStreamSessionRoundTrip(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	var buf []byte
	for i := 0; i < 50; i++ {
		w := &WireEnvelope{
			Kind: FrameMsg, To: "sink", FromAddr: "node-a", FromName: "driver",
			Seq: uint64(i + 1), Lamport: uint64(i + 10), Payload: tPing{N: i},
		}
		var err error
		buf, err = enc.appendFrame(buf[:0], w)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		var got WireEnvelope
		if err := dec.decodeFrame(buf, &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if got.Seq != w.Seq || got.To != w.To {
			t.Fatalf("frame %d: header mismatch: %+v", i, got)
		}
		if p, ok := got.Payload.(tPing); !ok || p.N != i {
			t.Fatalf("frame %d: payload = %#v, want tPing{%d}", i, got.Payload, i)
		}
	}
}

// TestStreamSessionControlFrames checks non-message frames carry no payload
// section and reject trailing garbage.
func TestStreamSessionControlFrames(t *testing.T) {
	dec := newDecSession()
	frame := appendEnvelope(nil, &WireEnvelope{Kind: FrameHeartbeat, FromAddr: "a"})
	var got WireEnvelope
	if err := dec.decodeFrame(frame, &got); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if got.Kind != FrameHeartbeat {
		t.Fatalf("kind = %v", got.Kind)
	}
	if err := dec.decodeFrame(append(frame, 0xAB), &got); err == nil {
		t.Fatal("trailing byte after a control frame decoded without error")
	}
}

// TestStreamSessionTruncatedPayload checks a FrameMsg whose payload section
// was cut short errors (the session is then torn down by the link layer)
// instead of blocking or panicking.
func TestStreamSessionTruncatedPayload(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	w := &WireEnvelope{Kind: FrameMsg, To: "sink", Payload: tPing{N: 42}}
	frame, err := enc.appendFrame(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	var got WireEnvelope
	if err := dec.decodeFrame(frame[:len(frame)-3], &got); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

// TestStreamSessionSelfContainedFrames interleaves self-contained frames
// (fresh gob encoder per payload) with session frames on one enc/dec pair:
// each self-contained frame decodes in isolation — on a fresh session, or
// out of order — and never disturbs the streaming session around it.
func TestStreamSessionSelfContainedFrames(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	var frames [][]byte
	for i := 0; i < 6; i++ {
		w := &WireEnvelope{Kind: FrameMsg, To: "sink", Payload: tPing{N: i}}
		if i%2 == 1 {
			w.flags = frameFlagSelfContained
		}
		frame, err := enc.appendFrame(nil, w)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		frames = append(frames, frame)
	}
	decode := func(d *decSession, i int) {
		t.Helper()
		var got WireEnvelope
		if err := d.decodeFrame(frames[i], &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if p, ok := got.Payload.(tPing); !ok || p.N != i {
			t.Fatalf("frame %d: payload = %#v", i, got.Payload)
		}
	}
	// Self-contained frames first and backwards, each on a fresh session.
	for _, i := range []int{5, 3, 1} {
		decode(newDecSession(), i)
	}
	// Then the whole sequence in order on the live session.
	for i := range frames {
		decode(dec, i)
	}
}

// TestCodecInterop runs a live two-node exchange in both directions (Tell
// request, Ask reply) with each payload mode of the one wire protocol: the
// streaming session, and self-contained frames (forced by recording the
// network, as record/replay does). Every ask must round trip, and both ends
// must have completed the hello/hello-ack exchange that opens the credit
// window.
func TestCodecInterop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record bool
	}{
		{"stream-stream", false},
		{"selfcontained-selfcontained", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, net := twoMemNodes(t, nil)
			var rec *WireRecording
			if tc.record {
				rec = net.Record(1)
			}
			echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
				if p, ok := msg.(tPing); ok {
					ctx.Reply(tPong{N: p.N})
				}
			})
			b.Register("echo", echo)
			ref, err := a.RefFor("echo@B")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				reply, err := actors.Ask(a.System(), ref, tPing{N: i}, 5*time.Second)
				if err != nil {
					t.Fatalf("ask %d: %v", i, err)
				}
				if p, ok := reply.(tPong); !ok || p.N != i {
					t.Fatalf("ask %d: reply = %#v", i, reply)
				}
			}
			if a.Stats().CreditedConns == 0 || b.Stats().CreditedConns == 0 {
				t.Fatalf("hello-ack never opened the window: a=%d b=%d",
					a.Stats().CreditedConns, b.Stats().CreditedConns)
			}
			if tc.record {
				// Every recorded message carried a content fingerprint,
				// the stamp that makes its frame self-contained.
				snap := rec.Snapshot()
				if len(snap.Entries) < 100 {
					t.Fatalf("recorded %d message frames, want ≥ 100", len(snap.Entries))
				}
				for i, e := range snap.Entries {
					if e.Content == 0 {
						t.Fatalf("recorded frame %d carries no content fingerprint", i)
					}
				}
			}
		})
	}
}

// TestStreamingSurvivesReconnect tears a streaming link down by closing the
// peer node, restarts the listener, and checks the link starts a fresh
// session pair (a new hello/hello-ack exchange) that still delivers — the
// failure-handling story for a stateful wire format.
func TestStreamingSurvivesReconnect(t *testing.T) {
	net := NewMemNetwork()
	mkCfg := func(addr string) Config {
		return Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  30 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
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
				default: // never block the actor on a full test channel
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
	// Make sure the first connection's hello-ack has landed before killing
	// it.
	firstUp := time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns == 0 {
		if time.Now().After(firstUp) {
			t.Fatal("first connection never received its hello-ack")
		}
		ref.Tell(tPing{N: 1})
		time.Sleep(time.Millisecond)
	}

	// Kill B entirely (listener + connections), then bring up a fresh node
	// on the same address: the old streaming session is unusable and the
	// link must start over from a fresh hello.
	b.Close()
	b2, err := NewNode(mkCfg("B"))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	serveSink(b2)
	send(2)

	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().CreditedConns < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("expected a fresh hello-ack after reconnect, got %d", a.Stats().CreditedConns)
		}
		ref.Tell(tPing{N: 3})
		time.Sleep(time.Millisecond)
	}
}
