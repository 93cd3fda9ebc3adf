// Package remote is the location-transparent distribution layer: it lets
// two (or N) actor Systems on different nodes exchange messages through
// ordinary actors.Ref handles. The paper's actor model is
// location-transparent by construction — Send(m).To(r) names a recipient,
// not a memory address — and this package cashes that property in: a
// proxy Ref obtained from Node.RefFor("bridge@addr") Tells and Asks exactly
// like a local one, with the envelope crossing a Transport instead of a
// mailbox pointer.
//
// A Node owns one listener plus dial-out links to its peers. Links carry
// length-prefixed frames (a binary header plus a gob payload), heartbeat
// while idle, and reconnect with jittered exponential backoff when the peer
// goes away. Sends to an unreachable peer never block: they route to the
// owning System's deadletter contract (kind actors.DLRemote), which is also
// what makes the failure observable through metrics.
//
// Delivery is at-most-once per send: a frame accepted onto a link can still
// be lost if the connection dies before the peer reads it, and nothing is
// retransmitted at this layer. Protocols that need more layer
// actors.AskRetry (at-least-once with idempotent receivers) on top, exactly
// as the chaos problem variants already do — see docs/REMOTE.md.
//
// Every envelope is stamped with a Lamport timestamp from the node's
// trace.LamportClock (tick on send, Observe-merge on receive), so the wire
// logs of all nodes merge into one causally consistent diagram via
// trace.MergeLamport.
package remote

import (
	"fmt"

	"repro/internal/trace"
)

// FrameKind discriminates the frames a link carries.
type FrameKind uint8

const (
	// FrameHello opens a connection: it announces the dialer's listen
	// address, seeds the receiver's Lamport clock, and carries wireProtocol
	// in Seq — any other value makes the receiver refuse the connection.
	FrameHello FrameKind = iota + 1
	// FrameMsg carries one application envelope.
	FrameMsg
	// FrameHeartbeat probes the link; the peer answers with
	// FrameHeartbeatAck on the same connection. Its Seq carries the number
	// of FrameMsg the dialer has written on the connection, so the receiver
	// can count messages the transport lost as delivered (see link.tick).
	FrameHeartbeat
	// FrameHeartbeatAck answers a heartbeat; receiving any frame (ack
	// included) refreshes the dialer's liveness horizon.
	FrameHeartbeatAck
	// FrameHelloAck answers a FrameHello. It is the connection's first
	// credit grant (Seq carries the window), and its frameFlagTraced bit
	// says whether the receiver can adopt migrating trace spans.
	FrameHelloAck
	// FrameCredit returns flow-control credits to the sender: Seq carries
	// the receiver's cumulative grant (total messages the sender may have
	// sent on this connection since it opened). Grants only ever travel
	// ack-direction (receiver → dialer) and are cumulative, so a lost
	// credit frame is healed by the next one.
	FrameCredit
	// FrameGossip piggybacks a cluster-membership digest on the heartbeat
	// cadence (internal/cluster): each heartbeat tick on a dial-out link of
	// a node with a GossipHook carries one. The digest travels as opaque
	// bytes in the To header field — not in Payload — so gossip frames stay
	// self-contained: a dropped digest never desynchronizes the streaming
	// payload session, and the next tick's digest supersedes it (gossip
	// state is convergent, not incremental). A node without a hook ignores
	// them.
	FrameGossip
)

func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameMsg:
		return "msg"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameHeartbeatAck:
		return "heartbeat-ack"
	case FrameHelloAck:
		return "hello-ack"
	case FrameCredit:
		return "credit"
	case FrameGossip:
		return "gossip"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// WireEnvelope is the unit encoded into one frame. Application payloads
// travel in Payload and must be registered with RegisterType.
type WireEnvelope struct {
	Kind FrameKind

	// flags holds the header's frameFlag* bits. frameFlagTraced is derived
	// from span on encode and stripped on decode; the others travel as set.
	flags uint8

	// Addressing: To names a recipient in the receiving node's registry;
	// ToID addresses a specific actor by raw ID (reply routing). Exactly
	// one is set on FrameMsg.
	To   string
	ToID uint64

	// Sender identity, for replies: FromAddr is the sending node's listen
	// address (the peer dials back to it), FromID/FromName identify the
	// sending actor there. FromID 0 means the send came from outside any
	// actor; replies then have nowhere to go and deadletter.
	FromAddr string
	FromID   uint64
	FromName string

	// Seq is the sending node's outbound frame sequence number, Lamport
	// the logical timestamp (tick-on-send). Together they let two nodes'
	// wire logs be matched pairwise and merged causally. Control frames
	// reuse Seq for their one number: the protocol on FrameHello, the
	// cumulative credit grant on FrameHelloAck and FrameCredit, the
	// written-message count on FrameHeartbeat.
	Seq     uint64
	Lamport uint64

	// Content is a payload fingerprint used by wire record/replay to pin
	// same-link frame *content* order, not just per-link fates: a replayed
	// run's frames may be batched and sequenced differently, but their
	// contents match the recorded ones. Stamped by forward() only while a
	// recording (or replay) with content IDs is active — zero otherwise, so
	// steady-state traffic pays one header byte and no hashing.
	Content uint64

	// Payload is the application message (FrameMsg only).
	Payload any

	// span is the in-flight distributed trace span migrating with this
	// envelope, if the message is sampled. Whoever writes the frame
	// serializes it (wirecodec.go, behind frameFlagTraced) when the peer's
	// hello-ack said it adopts spans, and seals it at the wire boundary
	// otherwise.
	span *trace.Span

	// Inbound side of the migration: the binary decoder parses the span
	// ledger into wireSpan and sets traced; the dispatch path then rebuilds
	// a live Span via the receiving node's Tracer.Adopt. Split from span so
	// decoding stays allocation-free and tracer-free.
	wireSpan trace.WireSpan
	traced   bool
}

// payloadType describes a payload for wire logs without reflecting on nil.
func payloadType(v any) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T", v)
}
