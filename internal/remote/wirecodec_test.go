package remote

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// randEnvelope builds an arbitrary but valid envelope from a seeded source,
// covering empty strings, unicode, and extreme numeric values.
func randEnvelope(rng *rand.Rand) *WireEnvelope {
	strs := []string{"", "sink", "bridge@node-b", "日本語-actor", "x", string(make([]byte, 300))}
	nums := []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint32, math.MaxUint64}
	pick := func() uint64 { return nums[rng.Intn(len(nums))] }
	kinds := []FrameKind{FrameHello, FrameMsg, FrameHeartbeat, FrameHeartbeatAck, FrameHelloAck, FrameCredit, FrameGossip}
	kind := kinds[rng.Intn(len(kinds))]
	flags := uint8(rng.Intn(frameFlagsKnown + 1))
	if kind == FrameMsg {
		// On msg frames the traced flag is owned by the codec (set when a
		// span rides, stripped on decode), so a valid generated envelope
		// must not claim a span it does not carry.
		flags &^= frameFlagTraced
	}
	return &WireEnvelope{
		Kind:     kind,
		flags:    flags,
		To:       strs[rng.Intn(len(strs))],
		ToID:     pick(),
		FromAddr: strs[rng.Intn(len(strs))],
		FromID:   pick(),
		FromName: strs[rng.Intn(len(strs))],
		Seq:      pick(),
		Lamport:  pick(),
		Content:  pick(),
	}
}

func envelopeHeadersEqual(a, b *WireEnvelope) bool {
	return a.Kind == b.Kind && a.flags == b.flags &&
		a.To == b.To && a.ToID == b.ToID &&
		a.FromAddr == b.FromAddr && a.FromID == b.FromID && a.FromName == b.FromName &&
		a.Seq == b.Seq && a.Lamport == b.Lamport && a.Content == b.Content
}

func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cache internTable
	for i := 0; i < 2000; i++ {
		w := randEnvelope(rng)
		frame := appendEnvelope(nil, w)
		var got WireEnvelope
		n, err := decodeEnvelopeInto(&got, frame, &cache)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if n != len(frame) {
			t.Fatalf("iter %d: consumed %d of %d bytes", i, n, len(frame))
		}
		if !envelopeHeadersEqual(w, &got) {
			t.Fatalf("iter %d: round trip mismatch:\nsent %+v\ngot  %+v", i, w, got)
		}
	}
}

func TestEnvelopeDecodeTruncated(t *testing.T) {
	w := &WireEnvelope{
		Kind: FrameMsg, flags: frameFlagSelfContained, To: "sink", ToID: 9,
		FromAddr: "node-a", FromID: math.MaxUint64, FromName: "driver",
		Seq: 12345, Lamport: 99,
	}
	frame := appendEnvelope(nil, w)
	// Every strict prefix must error cleanly, never panic, never succeed.
	for n := 0; n < len(frame); n++ {
		var got WireEnvelope
		if _, err := decodeEnvelopeInto(&got, frame[:n], nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(frame))
		}
	}
}

func TestEnvelopeDecodeRejectsBadInput(t *testing.T) {
	good := appendEnvelope(nil, &WireEnvelope{Kind: FrameMsg, To: "x"})

	var w WireEnvelope
	bad := append([]byte{}, good...)
	bad[0] = 0 // kind below FrameHello
	if _, err := decodeEnvelopeInto(&w, bad, nil); err == nil {
		t.Fatal("kind 0 decoded without error")
	}
	bad[0] = byte(FrameGossip) + 1 // kind above the known range
	if _, err := decodeEnvelopeInto(&w, bad, nil); err == nil {
		t.Fatal("out-of-range kind decoded without error")
	}

	bad = append([]byte{}, good...)
	bad[1] = 0x04 // a flag bit the protocol does not define
	if _, err := decodeEnvelopeInto(&w, bad, nil); err == nil {
		t.Fatal("unknown flag bit decoded without error")
	}

	// A string length claiming more bytes than the frame holds.
	oversized := appendEnvelope(nil, &WireEnvelope{Kind: FrameHello})
	oversized = oversized[:len(oversized)-3]        // strip the three empty strings
	oversized = append(oversized, 0xFF, 0xFF, 0x7F) // To length ≈ 2M, no bytes follow
	if _, err := decodeEnvelopeInto(&w, oversized, nil); err == nil {
		t.Fatal("oversized string length decoded without error")
	}
}

// TestCreditFrameWire pins the credit frame's wire contract: the grant
// rides Seq and round-trips exactly; truncated credit frames error at every
// prefix; and a credit frame with trailing garbage is rejected by the
// streaming session (control frames are header-only) without corrupting it —
// the session keeps decoding subsequent well-formed frames.
func TestCreditFrameWire(t *testing.T) {
	w := &WireEnvelope{Kind: FrameCredit, FromAddr: "node-b", Seq: math.MaxUint32 + 7}
	frame := appendEnvelope(nil, w)
	var got WireEnvelope
	n, err := decodeEnvelopeInto(&got, frame, nil)
	if err != nil || n != len(frame) {
		t.Fatalf("credit decode: n=%d err=%v", n, err)
	}
	if got.Kind != FrameCredit || got.Seq != w.Seq {
		t.Fatalf("credit round trip: got kind=%v seq=%d, want kind=%v seq=%d", got.Kind, got.Seq, w.Kind, w.Seq)
	}
	for i := 0; i < len(frame); i++ {
		var p WireEnvelope
		if _, err := decodeEnvelopeInto(&p, frame[:i], nil); err == nil {
			t.Fatalf("credit prefix of %d/%d bytes decoded without error", i, len(frame))
		}
	}

	enc, dec := newEncSession(), newDecSession()
	var out WireEnvelope
	if err := dec.decodeFrame(append(frame, 0xAB), &out); err == nil {
		t.Fatal("credit frame with trailing bytes decoded without error")
	}
	msg, err := enc.appendFrame(nil, &WireEnvelope{Kind: FrameCredit, Seq: 42})
	if err != nil {
		t.Fatal(err)
	}
	out = WireEnvelope{}
	if err := dec.decodeFrame(msg, &out); err != nil {
		t.Fatalf("session did not survive a malformed credit frame: %v", err)
	}
	if out.Kind != FrameCredit || out.Seq != 42 {
		t.Fatalf("post-error decode: got %+v", out)
	}
}

// TestInternTableReusesStrings pins the allocation contract: decoding a
// stream of frames that repeat the same addressing strings must not allocate
// a fresh string per frame.
func TestInternTableReusesStrings(t *testing.T) {
	w := &WireEnvelope{Kind: FrameMsg, To: "sink", FromAddr: "node-a", FromName: "driver"}
	frame := appendEnvelope(nil, w)
	var cache internTable
	var out WireEnvelope
	if _, err := decodeEnvelopeInto(&out, frame, &cache); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := decodeEnvelopeInto(&out, frame, &cache); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state envelope decode allocates %.1f/op, want 0", allocs)
	}
}

func TestEnvelopeEncodeAllocs(t *testing.T) {
	w := &WireEnvelope{Kind: FrameMsg, To: "sink", FromAddr: "node-a", FromName: "driver", Seq: 1, Lamport: 2}
	buf := appendEnvelope(nil, w) // warm the buffer to capacity
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendEnvelope(buf[:0], w)
	})
	if allocs != 0 {
		t.Fatalf("steady-state envelope encode allocates %.1f/op, want 0", allocs)
	}
}

// FuzzCodec pins the decoder's safety contract: arbitrary bytes must either
// error or decode into an envelope whose canonical re-encoding decodes back
// to the same header (byte equality is deliberately not required — overlong
// uvarint encodings are accepted on input but never produced on output).
func FuzzCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		frame := appendEnvelope(nil, randEnvelope(rng))
		f.Add(frame)
		f.Add(frame[:rng.Intn(len(frame))])
	}
	f.Add([]byte{})
	f.Add([]byte{byte(FrameMsg)})
	f.Add(appendEnvelope(nil, &WireEnvelope{Kind: FrameCredit, FromAddr: "node-b", Seq: 4096}))
	f.Add([]byte{byte(FrameMsg), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// The flag bits: a self-contained message, a traced one (span ledger
	// after the header), a traced hello-ack, and an undefined bit.
	f.Add(appendEnvelope(nil, &WireEnvelope{Kind: FrameMsg, flags: frameFlagSelfContained, To: "sink", Content: 9}))
	f.Add(appendWireSpan([]byte{byte(FrameMsg), frameFlagTraced, 0, 0, 1, 2, 0, 0, 0, 0},
		trace.WireSpan{Trace: 1, ID: 2, Start: 3, Last: 4}))
	f.Add(appendEnvelope(nil, &WireEnvelope{Kind: FrameHelloAck, flags: frameFlagTraced, Seq: 1024}))
	f.Add([]byte{byte(FrameHello), 0x80, 0, 0, wireProtocol, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireEnvelope
		n, err := decodeEnvelopeInto(&w, data, nil)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		re := appendEnvelope(nil, &w)
		var w2 WireEnvelope
		m, err := decodeEnvelopeInto(&w2, re, nil)
		if err != nil {
			t.Fatalf("re-encoding of a decoded envelope failed to decode: %v", err)
		}
		if m != len(re) {
			t.Fatalf("re-encoding left %d trailing bytes", len(re)-m)
		}
		if !envelopeHeadersEqual(&w, &w2) {
			t.Fatalf("decode∘encode not stable:\nfirst  %+v\nsecond %+v", w, w2)
		}
	})
}
