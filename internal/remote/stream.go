package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// Payload encoding. A FrameMsg's header (wirecodec.go) is followed by its
// payload in gob, which names concrete types and so carries arbitrary
// registered messages. Each connection direction runs one long-lived
// encoder/decoder session — a *streaming* gob, so type descriptors cross
// the wire once per connection instead of once per frame.
//
// The price of streaming is that a session's frames are not independent: a
// frame lost in flight can take a later frame's type descriptors with it.
// The link layer therefore tears the connection down on any session decode
// error and starts a fresh session pair on reconnect — which is the honest
// semantics anyway, since an ordered transport that lost a frame has lost
// the ordering promise the session was built on. Frames flagged
// frameFlagSelfContained bypass the session and decode in isolation.

// RegisterType registers a payload's concrete type with gob. Call it from an
// init function in the package that defines the protocol messages;
// registration is global and idempotent for a given type/name. An
// unregistered payload fails at encode on the sender, never partway across
// the wire.
func RegisterType(v any) { gob.Register(v) }

func newEncSession() *encSession {
	s := &encSession{}
	s.enc = gob.NewEncoder(&s.buf)
	return s
}

func newDecSession() *decSession {
	s := &decSession{}
	s.dec = gob.NewDecoder(&s.chunk)
	return s
}

// encSession is one connection's outbound payload stream. It belongs to
// whoever holds the link's write lock and is not safe for concurrent use.
type encSession struct {
	buf  bytes.Buffer // gob output for the frame being encoded
	enc  *gob.Encoder
	slot any // reused interface cell so Encode(&slot) never heap-escapes
}

// appendFrame appends the complete frame for w to buf: binary header, then
// (for FrameMsg) the payload bytes — from the session's gob encoder, or from
// a fresh one when w is flagged self-contained. An error on a session frame
// poisons the session — gob may have recorded a descriptor it never finished
// writing — so the caller must tear the connection down.
func (s *encSession) appendFrame(buf []byte, w *WireEnvelope) ([]byte, error) {
	buf = appendEnvelope(buf, w)
	if w.Kind != FrameMsg {
		return buf, nil
	}
	s.buf.Reset()
	enc := s.enc
	if w.flags&frameFlagSelfContained != 0 {
		enc = gob.NewEncoder(&s.buf)
	}
	s.slot = w.Payload
	err := enc.Encode(&s.slot)
	s.slot = nil
	if err != nil {
		return nil, err
	}
	return append(buf, s.buf.Bytes()...), nil
}

// decSession is one connection's inbound payload stream, owned by the
// connection's reader goroutine.
type decSession struct {
	chunk  chunkReader
	dec    *gob.Decoder
	intern internTable
}

// decodeFrame parses one frame into w. The payload section must contain
// exactly the gob messages for one value; leftover or missing bytes mean
// the stream is desynchronized (typically a frame was lost in flight) and
// the caller must tear the connection down.
func (s *decSession) decodeFrame(frame []byte, w *WireEnvelope) error {
	n, err := decodeEnvelopeInto(w, frame, &s.intern)
	if err != nil {
		return err
	}
	if w.Kind != FrameMsg {
		if n != len(frame) {
			return fmt.Errorf("remote: %d trailing bytes after %s frame", len(frame)-n, w.Kind)
		}
		return nil
	}
	s.chunk.rest = frame[n:]
	dec := s.dec
	if w.flags&frameFlagSelfContained != 0 {
		dec = gob.NewDecoder(&s.chunk)
	}
	var payload any
	if err := dec.Decode(&payload); err != nil {
		s.chunk.rest = nil
		return fmt.Errorf("remote: payload decode: %w", err)
	}
	if len(s.chunk.rest) != 0 {
		return fmt.Errorf("remote: %d trailing payload bytes", len(s.chunk.rest))
	}
	w.Payload = payload
	return nil
}

// chunkReader feeds one frame's payload section to a gob decoder. gob copies
// what it reads into its own buffers, so the frame can be recycled as soon
// as Decode returns.
type chunkReader struct {
	rest []byte
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}
