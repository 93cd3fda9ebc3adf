package remote

import "testing"

// TestStreamEncodeAllocs pins the steady-state allocation budget of the full
// message encode path: binary header + streaming gob payload into a warm scratch
// buffer. The envelope header itself is zero-alloc (see
// TestEnvelopeEncodeAllocs); gob's value encoding is allowed at most one
// allocation per message.
func TestStreamEncodeAllocs(t *testing.T) {
	enc := newEncSession()
	w := &WireEnvelope{
		Kind: FrameMsg, To: "sink", FromAddr: "node-a", FromName: "driver",
		Seq: 1, Lamport: 2, Payload: tPing{N: 7},
	}
	var buf []byte
	// Warm up: first frame pays type descriptors and buffer growth.
	for i := 0; i < 10; i++ {
		var err error
		if buf, err = enc.appendFrame(buf[:0], w); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = enc.appendFrame(buf[:0], w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state stream encode allocates %.1f/op, want ≤1", allocs)
	}
}

// TestStreamDecodeAllocs pins the receive side: a warm decode session with
// its intern table should allocate only what gob needs to materialize the
// payload value.
func TestStreamDecodeAllocs(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	w := &WireEnvelope{Kind: FrameMsg, To: "sink", FromAddr: "node-a", Seq: 1, Payload: tPing{N: 7}}
	frame, err := enc.appendFrame(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	var out WireEnvelope
	// The first frame of a session carries gob type descriptors and may be
	// fed to the decoder only once; measure on a descriptor-free follow-up.
	if err := dec.decodeFrame(frame, &out); err != nil {
		t.Fatal(err)
	}
	frame, err = enc.appendFrame(frame[:0], w)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.decodeFrame(frame, &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := dec.decodeFrame(frame, &out); err != nil {
			t.Fatal(err)
		}
	})
	// Materializing `any`-boxed tPing costs gob a couple of small allocs;
	// the bound catches regressions back toward per-frame decoder state.
	if allocs > 4 {
		t.Fatalf("steady-state stream decode allocates %.1f/op, want ≤4", allocs)
	}
}
