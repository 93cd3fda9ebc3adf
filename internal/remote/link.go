package remote

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Link lifecycle. A fresh link is connecting: the peer is not yet known to
// be unreachable, so sends buffer into the outbox and flush when the dial
// lands (this is what lets an Ask's reply survive the reply-direction link
// being created on demand). A link goes down on its first dial failure or
// when an established connection dies, and sends are refused — deadlettered
// by the caller — until a redial succeeds.
const (
	linkConnecting int32 = iota
	linkUp
	linkDown
)

// link is one dial-out connection to a peer. A manager goroutine (run)
// dials, heartbeats, and redials with jittered exponential backoff when the
// connection dies. Replies from the peer do not travel back on this
// connection — the peer dials its own link to us — so inbound traffic here
// is only heartbeat and hello acks and credit grants.
//
// Frames reach the connection two ways, both under wmu, which guards the
// live connection's write side: its payload session and its grow-only
// scratch buffer, so the steady-state send path allocates nothing. A sender
// that finds the link idle — up, nothing queued, credit available, wmu free
// — encodes and writes its own frame (tryWrite), with no goroutine handoff.
// Otherwise the envelope goes to the outbox, and the manager goroutine
// drains it in coalesced batches with one flush when the queue goes empty
// (Nagle without the delay), parking on an exhausted credit window. queued
// counts the envelopes the manager still owes the connection — the outbox
// plus a credit-parked one — and a sender writes directly only at zero, so
// no direct write passes an envelope queued before it: per-link FIFO holds
// across both paths.
type link struct {
	n      *Node
	peer   string
	outbox chan *WireEnvelope
	wmu    sync.Mutex
	queued atomic.Int64
	state  atomic.Int32 // linkConnecting until the first dial resolves
	// lastRecv is the unixnano of the last frame read on the current
	// connection; heartbeat timeout compares against it.
	lastRecv atomic.Int64
	// hbSentAt is the unixnano of the most recent heartbeat written, or 0
	// when no probe is outstanding; the reader swaps it out when the ack
	// arrives to observe one round-trip sample. A probe that dies with its
	// connection leaves a stale stamp, overwritten by the next probe.
	hbSentAt atomic.Int64
	// cs is the live connection's wire state, published for direct writers
	// and the per-link credits gauge; nil between connections.
	cs atomic.Pointer[connState]
	// reported is the last liveness state surfaced through
	// Config.OnLinkState: 0 never reported, 1 up, 2 down. Owned by the
	// manager goroutine, so transitions are reported exactly once even
	// across redial churn.
	reported int8
}

func newLink(n *Node, peer string) *link {
	return &link{n: n, peer: peer, outbox: make(chan *WireEnvelope, n.cfg.OutboxCap)}
}

// enqResult says what send did with an envelope, so the caller can pick
// the matching deadletter kind: a down link is an unreachable peer
// (DLRemote), a full outbox on a live link is overload (DLOverloaded).
type enqResult int

const (
	enqOK enqResult = iota
	enqDown
	enqFull
)

// send hands an envelope to the link without waiting on the manager:
// written on the caller's goroutine when the link is idle, queued for the
// manager otherwise. Anything but enqOK means the caller deadletters (and
// releases) the envelope. A connecting link accepts (buffers) the envelope:
// the peer is not yet known unreachable.
func (l *link) send(w *WireEnvelope) enqResult {
	if l.state.Load() == linkDown {
		return enqDown
	}
	if l.tryWrite(w) {
		return enqOK
	}
	l.queued.Add(1)
	select {
	case l.outbox <- w:
		return enqOK
	default:
		l.queued.Add(-1)
		return enqFull
	}
}

// tryWrite is the sender's direct path: when a connection is live, nothing
// is queued, credit is available and no one else is writing, it encodes and
// writes w itself and reports true — w is then consumed, written or (on a dead connection) lost
// like any frame written into a dying socket. False leaves w with the
// caller, to queue. It never waits for wmu: a busy link means the manager or
// another sender is writing, and queueing behind them is what keeps FIFO.
func (l *link) tryWrite(w *WireEnvelope) bool {
	cs := l.cs.Load()
	if cs == nil || l.queued.Load() != 0 || cs.available() <= 0 || !l.wmu.TryLock() {
		return false
	}
	defer l.wmu.Unlock()
	// Re-check under the lock: the manager may have dequeued or parked an
	// envelope, or torn the connection down, since the unlocked look. Only
	// writers holding wmu consume credit, so available cannot drop now.
	if cs.dead || l.queued.Load() != 0 || cs.available() <= 0 {
		return false
	}
	sent, ok := l.writeFrame(cs, w, false)
	if !ok {
		// The manager's teardown, started from here: no frame may follow
		// on this connection or session. Closing it ends the ack reader,
		// which ends the manager's serve loop, and the manager redials.
		cs.dead = true
		_ = cs.conn.Close()
	}
	if sent {
		l.n.batches.Add(1)
		l.n.batchedFrames.Add(1)
		l.n.directWrites.Add(1)
	}
	return true
}

// credits reports the live connection's available credit, or -1 when the
// connection is down.
func (l *link) credits() int64 {
	cs := l.cs.Load()
	if cs == nil {
		return -1
	}
	return cs.available()
}

// depth is the current outbox occupancy (per-link gauge).
func (l *link) depth() int64 { return int64(len(l.outbox)) }

// isUp reports whether the link has a live, hello'd connection.
func (l *link) isUp() bool { return l.state.Load() == linkUp }

// notify surfaces a liveness transition through Config.OnLinkState, once per
// transition (manager goroutine only). The very first down report fires too:
// a seed peer that refuses the initial dial is exactly what a failure
// detector needs to hear about.
func (l *link) notify(up bool) {
	cb := l.n.cfg.OnLinkState
	if cb == nil {
		return
	}
	target := int8(2)
	if up {
		target = 1
	}
	if l.reported == target {
		return
	}
	l.reported = target
	cb(l.peer, up)
}

// run is the link's manager loop: dial, serve until the connection dies,
// back off, repeat. It exits when the node closes.
func (l *link) run() {
	n := l.n
	defer n.wg.Done()
	backoff := n.cfg.ReconnectMin
	established := false
	for {
		if n.isClosed() {
			return
		}
		conn, err := n.tr.Dial(l.peer)
		if err != nil {
			l.state.Store(linkDown)
			l.notify(false)
			if !l.sleep(n.jitterDur(backoff)) {
				return
			}
			backoff *= 2
			if backoff > n.cfg.ReconnectMax {
				backoff = n.cfg.ReconnectMax
			}
			continue
		}
		backoff = n.cfg.ReconnectMin
		if established {
			n.reconnects.Add(1)
		}
		established = true
		l.serve(conn)
		l.state.Store(linkDown)
		l.notify(false)
		_ = conn.Close()
	}
}

// connState is the per-connection wire state. Everything is
// connection-scoped: a reconnect starts a fresh payload session and a fresh
// credit window on both ends.
type connState struct {
	conn Conn
	// sess, scratch and dead belong to whoever holds the link's wmu. dead
	// is set once a write failed or the manager tore the connection down;
	// nothing is written after it.
	sess    *encSession
	scratch []byte // grow-only encode buffer, reused for every frame
	dead    bool

	// Credit flow control. granted is the peer's cumulative grant (reader →
	// writers, monotonic; one until the hello-ack arrives); consumed counts
	// FrameMsg written since the connection opened (written under wmu,
	// atomic so senders and the credits gauge can read it). available =
	// granted−consumed; at ≤ 0 senders queue, and the manager parks the next
	// message until the reader signals creditCh (capacity 1 — a wakeup
	// token, not a value).
	granted  atomic.Int64
	consumed atomic.Int64
	creditCh chan struct{}

	// peerTraced is set when the peer's hello-ack carried frameFlagTraced:
	// this connection's FrameMsg may carry migrating trace spans. Until
	// then the writer seals any span at the wire boundary instead (the
	// trace ends here, but what was measured is kept).
	peerTraced atomic.Bool
}

// available is the remaining credit window.
func (cs *connState) available() int64 { return cs.granted.Load() - cs.consumed.Load() }

// grant raises the cumulative grant to g (grants are monotonic; stale or
// reordered credit frames must never shrink the window) and wakes a writer
// that may be parked on zero credits.
func (cs *connState) grant(g int64) {
	for {
		cur := cs.granted.Load()
		if g <= cur {
			return
		}
		if cs.granted.CompareAndSwap(cur, g) {
			break
		}
	}
	select {
	case cs.creditCh <- struct{}{}:
	default:
	}
}

// serve owns one live connection: hello, then coalesced outbox batches and
// heartbeats, until a write fails, the peer falls silent past the heartbeat
// timeout, or the node closes.
func (l *link) serve(conn Conn) {
	n := l.n
	cs := &connState{conn: conn, sess: newEncSession(), creditCh: make(chan struct{}, 1)}
	// The hello carries an implicit grant of one message: the first message
	// of a connection does not wait a round trip, and a connection whose
	// hello is lost still writes (and loses) it, which is the loss a wire
	// recording captures. Everything after it waits for the hello-ack.
	cs.granted.Store(1)
	if !l.sendControl(cs, &WireEnvelope{
		Kind: FrameHello, FromAddr: n.addr, Seq: wireProtocol, Lamport: n.clock.Tick(),
	}) {
		return
	}
	l.lastRecv.Store(time.Now().UnixNano())
	l.cs.Store(cs)
	l.state.Store(linkUp)
	l.notify(true)
	defer func() {
		l.wmu.Lock()
		cs.dead = true
		l.wmu.Unlock()
		l.cs.Store(nil)
	}()

	// Reader: the only inbound traffic on a dial-out connection is the
	// hello-ack, heartbeat acks, and credit grants — header-only frames,
	// consumed as liveness evidence, grants and clock merges. It exits when
	// the connection closes from either side.
	readErr := make(chan struct{})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(readErr)
		for {
			frame, err := conn.Recv()
			if err != nil {
				return
			}
			n.bytesRecv.Add(int64(len(frame)))
			var w WireEnvelope
			_, derr := decodeEnvelopeInto(&w, frame, nil)
			putFrame(frame)
			if derr != nil {
				n.decodeErrs.Add(1)
				continue
			}
			n.clock.Observe(w.Lamport)
			now := time.Now().UnixNano()
			l.lastRecv.Store(now)
			switch w.Kind {
			case FrameHelloAck:
				// Publish the capability before the grant opens the window,
				// so the first message already sees it.
				cs.peerTraced.Store(w.flags&frameFlagTraced != 0)
				cs.grant(int64(w.Seq))
				n.creditedConns.Add(1)
			case FrameCredit:
				n.creditFramesRecv.Add(1)
				cs.grant(int64(w.Seq))
			case FrameHeartbeatAck:
				if t0 := l.hbSentAt.Swap(0); t0 != 0 {
					if h := n.rtt.Load(); h != nil {
						h.Observe(time.Duration(now - t0))
					}
				}
			}
		}
	}()

	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	// pending is the one envelope the manager dequeued but could not send for
	// lack of credits. It parks here — not back in the outbox, order matters
	// — until the reader's grant wakes the loop (the heartbeat tick doubles
	// as a retry backstop), and it stays in queued, so senders queue behind
	// it. Heartbeats keep flowing while parked, so a credit stall never
	// looks like peer silence. A connection that dies with a message parked
	// loses it, exactly like a frame written into a dead socket:
	// at-most-once.
	var pending *WireEnvelope
	defer func() {
		if pending != nil {
			if pending.span != nil {
				// The message dies with the connection; seal the span so
				// the measurement survives even though the hop did not.
				pending.span.FinishDead("wire", trace.SpanNow())
			}
			putEnvelope(pending)
			l.queued.Add(-1)
		}
	}()
	for {
		var ok bool
		if pending == nil {
			select {
			case <-n.done:
				return
			case <-readErr:
				return
			case w := <-l.outbox:
				if pending, ok = l.writeBatch(cs, w); !ok {
					return
				}
			case <-ticker.C:
				if !l.tick(cs) {
					return
				}
			}
			continue
		}
		select {
		case <-n.done:
			return
		case <-readErr:
			return
		case <-cs.creditCh:
		case <-ticker.C:
			if !l.tick(cs) {
				return
			}
		}
		if cs.available() > 0 {
			if pending.span != nil {
				// The park is over: everything since the stall mark was
				// time spent waiting on the peer's credit window.
				pending.span.Mark(trace.StageStall, trace.SpanNow())
			}
			if pending, ok = l.writeBatch(cs, pending); !ok {
				return
			}
		}
	}
}

// tick runs one heartbeat-interval maintenance pass: the peer-silence check
// plus a probe. False means the connection is dead or the peer timed out;
// the caller tears it down.
//
// The probe carries the count of FrameMsg written so far. On an ordered
// connection every one of them has, by the time the probe arrives, either
// arrived or been lost, so the receiver can count the lost ones as
// delivered — otherwise every dropped message would shrink the credit
// window for good, and after a window's worth the link would park forever
// with heartbeats still flowing. (The count is read before the probe is
// written, so a frame a sender writes in between only makes it low, which
// is safe.)
func (l *link) tick(cs *connState) bool {
	n := l.n
	silence := time.Since(time.Unix(0, l.lastRecv.Load()))
	if silence > n.cfg.HeartbeatTimeout {
		n.hbTimeouts.Add(1)
		return false
	}
	l.hbSentAt.Store(time.Now().UnixNano())
	// Lamport 0: liveness probes are not causal events, and Observe(0) is a
	// no-op on the receiver.
	if !l.sendControl(cs, &WireEnvelope{
		Kind: FrameHeartbeat, FromAddr: n.addr, Seq: uint64(cs.consumed.Load()),
	}) {
		return false
	}
	// Membership gossip rides the same cadence: one digest per tick. The
	// digest is opaque bytes in the To field — a header-only frame, so a
	// drop costs one round of dissemination, never the payload session.
	if g := n.cfg.Gossip; g != nil {
		if digest := g.GossipDigest(l.peer); len(digest) > 0 {
			if !l.sendControl(cs, &WireEnvelope{
				Kind: FrameGossip, FromAddr: n.addr,
				To: string(digest), Lamport: n.clock.Tick(),
			}) {
				return false
			}
			n.gossipSent.Add(1)
		}
	}
	return true
}

// sendControl writes one header-only frame through the connection's scratch
// buffer under wmu; false means the connection is dead.
func (l *link) sendControl(cs *connState, w *WireEnvelope) bool {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if cs.dead {
		return false
	}
	cs.scratch = appendEnvelope(cs.scratch[:0], w)
	if err := cs.conn.Send(cs.scratch); err != nil {
		return false
	}
	l.n.bytesSent.Add(int64(len(cs.scratch)))
	return true
}

// writeBatch drains, under wmu, every envelope that is already queued —
// starting with first, which the caller just dequeued (or un-parked) —
// encodes each into one frame, and pushes them all through the connection
// with a single flush when the queue goes empty. On a BufferedConn (TCP)
// that coalesces a burst of sends into one syscall; on per-frame transports
// (mem) it degrades to ordinary sends, preserving the per-frame
// fault-injection site either way.
//
// Each message costs one credit; when the window runs dry mid-batch the
// current envelope is returned as pending — what was already encoded still
// flushes — and the caller parks until the peer grants more. ok == false
// means the connection is dead or the payload session is poisoned; the
// caller tears the connection down and the manager loop redials.
func (l *link) writeBatch(cs *connState, first *WireEnvelope) (pending *WireEnvelope, ok bool) {
	n := l.n
	l.wmu.Lock()
	defer l.wmu.Unlock()
	bw, buffered := cs.conn.(BufferedConn)
	w := first
	frames := int64(0)
	for {
		if w.Kind == FrameMsg && cs.available() <= 0 {
			if w.span != nil {
				// Entering a credit park: close out the wire stage so the
				// stall mark at un-park measures only the park.
				w.span.Mark(trace.StageWire, trace.SpanNow())
			}
			pending = w
			n.creditStalls.Add(1)
			break
		}
		sent, ok := l.writeFrame(cs, w, buffered)
		l.queued.Add(-1)
		if !ok {
			cs.dead = true
			return nil, false
		}
		if sent {
			frames++
		}
		select {
		case w = <-l.outbox:
			continue
		default:
		}
		break
	}
	if buffered {
		if err := bw.Flush(); err != nil {
			cs.dead = true
			return nil, false
		}
	}
	if frames > 0 {
		n.batches.Add(1)
		n.batchedFrames.Add(frames)
	}
	return pending, true
}

// writeFrame encodes one envelope into the scratch buffer, sends it (staged
// only, when buffered), and releases it; the caller holds wmu. sent reports
// a frame on the wire. ok == false means the connection is dead or the payload session is
// poisoned, and nothing more may be written to it; a self-contained frame
// that fails to encode never touched the session, so it is only dropped.
func (l *link) writeFrame(cs *connState, w *WireEnvelope, buffered bool) (sent, ok bool) {
	n := l.n
	if cs.dead {
		putEnvelope(w)
		return false, false
	}
	if w.Kind == FrameMsg && w.span != nil && !cs.peerTraced.Load() {
		// The peer has no tracer to adopt the span: the trace ends at this
		// node's wire boundary. Charge the send path's wait to the wire
		// stage and seal, so partial traces still attribute what they saw.
		now := trace.SpanNow()
		w.span.Mark(trace.StageWire, now)
		w.span.Finish(now)
		w.span = nil
	}
	var err error
	cs.scratch, err = cs.sess.appendFrame(cs.scratch[:0], w)
	frame := cs.scratch
	isMsg := w.Kind == FrameMsg
	selfContained := w.flags&frameFlagSelfContained != 0
	putEnvelope(w)
	if err != nil {
		n.encodeErrs.Add(1)
		// Otherwise the payload session may hold a half-recorded type
		// descriptor, and the stream is no longer trustworthy.
		return false, selfContained
	}
	if buffered {
		err = cs.conn.(BufferedConn).SendBuffered(frame)
	} else {
		err = cs.conn.Send(frame)
	}
	if err != nil {
		return false, false
	}
	n.bytesSent.Add(int64(len(frame)))
	if isMsg {
		// Consume the credit only for frames actually written: both ends
		// count FrameMsg since the connection opened.
		cs.consumed.Add(1)
	}
	return true, true
}

// sleep pauses for d or until the node closes; false means closed.
func (l *link) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.n.done:
		return false
	case <-t.C:
		return true
	}
}
