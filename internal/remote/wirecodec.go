package remote

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// The frame header: one hand-rolled binary layout for every frame a
// connection carries, the hello included.
//
//	[0]     Kind
//	[1]     flags (frameFlag* bits)
//	uvarint ToID, FromID, Seq, Lamport, Content
//	string  To, FromAddr, FromName   (uvarint length + bytes each)
//	...     span ledger              (FrameMsg with frameFlagTraced only)
//	...     payload bytes            (FrameMsg only; gob, see stream.go)
//
// There is no version negotiation: every node runs this package, so the
// dialer's FrameHello carries wireProtocol in Seq and a receiver that sees
// anything else refuses the connection. Bump it on any incompatible change
// to the framing.
const wireProtocol = 6

// Frame flag bits (header byte 1).
const (
	// frameFlagTraced on a FrameMsg means the header is followed by a
	// trace.WireSpan (the migrating span ledger); on a FrameHelloAck it
	// means the receiver has a tracer to adopt spans into. An untraced
	// message pays zero extra bytes.
	frameFlagTraced = 0x01
	// frameFlagSelfContained on a FrameMsg means its payload was encoded by
	// a fresh gob encoder rather than the connection's streaming session,
	// so the frame decodes in isolation. Senders set it while the transport
	// stamps content fingerprints (record/replay), whose replayer reorders
	// frames.
	frameFlagSelfContained = 0x02

	frameFlagsKnown = frameFlagTraced | frameFlagSelfContained
)

var errTruncated = errors.New("remote: truncated envelope header")

// appendEnvelope appends the binary header encoding of w to buf and returns
// the extended slice. It never fails: every field is length-delimited and
// bounded only by the transport's maxFrame check at send time.
func appendEnvelope(buf []byte, w *WireEnvelope) []byte {
	flags := w.flags
	traced := w.Kind == FrameMsg && w.span != nil
	if traced {
		flags |= frameFlagTraced
	}
	buf = append(buf, byte(w.Kind), flags)
	buf = binary.AppendUvarint(buf, w.ToID)
	buf = binary.AppendUvarint(buf, w.FromID)
	buf = binary.AppendUvarint(buf, w.Seq)
	buf = binary.AppendUvarint(buf, w.Lamport)
	buf = binary.AppendUvarint(buf, w.Content)
	buf = appendWireString(buf, w.To)
	buf = appendWireString(buf, w.FromAddr)
	buf = appendWireString(buf, w.FromName)
	if traced {
		buf = appendWireSpan(buf, w.span.Wire())
	}
	return buf
}

// appendWireSpan appends the migrating span ledger after the fixed header:
// identity, then the running timestamps, then every stage bucket. All
// uvarints — a fresh root span is ~30 bytes, and only sampled messages to
// traced peers pay it.
func appendWireSpan(buf []byte, ws trace.WireSpan) []byte {
	buf = binary.AppendUvarint(buf, ws.Trace)
	buf = binary.AppendUvarint(buf, ws.ID)
	buf = binary.AppendUvarint(buf, ws.Parent)
	buf = binary.AppendUvarint(buf, uint64(ws.Start))
	buf = binary.AppendUvarint(buf, uint64(ws.Last))
	for _, d := range ws.Stages {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	return buf
}

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// internTable caches the previous value of each header string so that
// steady-state decoding allocates nothing: a link decodes thousands of
// frames that all carry the same To / FromAddr / FromName, and comparing
// bytes against the cached string is allocation-free in Go.
type internTable struct {
	to, fromAddr, fromName string
}

func intern(slot *string, b []byte) string {
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// decodeEnvelopeInto parses the binary header at the start of frame into w
// (overwriting every header field; Payload is left untouched) and returns
// the number of bytes consumed, so the caller can hand frame[n:] to the
// payload session. cache may be nil. Malformed, truncated, or oversized
// input returns an error — never a panic — which is what FuzzCodec pins.
func decodeEnvelopeInto(w *WireEnvelope, frame []byte, cache *internTable) (int, error) {
	if len(frame) < 2 {
		return 0, errTruncated
	}
	kind := FrameKind(frame[0])
	if kind < FrameHello || kind > FrameGossip {
		return 0, fmt.Errorf("remote: invalid frame kind %d", frame[0])
	}
	if frame[1]&^frameFlagsKnown != 0 {
		return 0, fmt.Errorf("remote: unknown frame flags %#x", frame[1])
	}
	w.Kind = kind
	w.flags = frame[1]
	rest := frame[2:]

	var err error
	if w.ToID, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.FromID, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.Seq, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.Lamport, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.Content, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	var to, fromAddr, fromName []byte
	if to, rest, err = readWireBytes(rest); err != nil {
		return 0, err
	}
	if fromAddr, rest, err = readWireBytes(rest); err != nil {
		return 0, err
	}
	if fromName, rest, err = readWireBytes(rest); err != nil {
		return 0, err
	}
	if cache != nil {
		w.To = intern(&cache.to, to)
		w.FromAddr = intern(&cache.fromAddr, fromAddr)
		w.FromName = intern(&cache.fromName, fromName)
	} else {
		w.To, w.FromAddr, w.FromName = string(to), string(fromAddr), string(fromName)
	}
	w.traced, w.wireSpan = false, trace.WireSpan{}
	if w.Kind == FrameMsg && w.flags&frameFlagTraced != 0 {
		// The flag describes the bytes that follow, not the envelope:
		// strip it, so re-encoding writes it only if a live span rides.
		w.flags &^= frameFlagTraced
		if rest, err = readWireSpan(&w.wireSpan, rest); err != nil {
			return 0, err
		}
		w.traced = true
	}
	return len(frame) - len(rest), nil
}

// readWireSpan parses the span ledger appendWireSpan wrote. Same
// error-never-panic contract as the rest of the header.
func readWireSpan(ws *trace.WireSpan, b []byte) ([]byte, error) {
	var v uint64
	var err error
	if ws.Trace, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if ws.ID, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if ws.Parent, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	ws.Start = int64(v)
	if v, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	ws.Last = int64(v)
	for i := range ws.Stages {
		if v, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		ws.Stages[i] = int64(v)
	}
	return b, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}

func readWireBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("remote: string length %d exceeds remaining %d bytes", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}
