package remote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// MemNetwork is the in-process transport fabric: nodes listen on arbitrary
// string addresses and frames move over buffered channels, so distributed
// runs execute deterministically under -race with no sockets. An optional
// faults.Injector is consulted at faults.SiteWire for every frame, which is
// where drop/delay/partition injection lives — the same seeded policies
// that fault single-process runs fault the wire.
//
// Each node takes its Transport from Endpoint(localAddr), which binds the
// dialer's identity so wire operations carry a "src->dst" link (see
// faults.WireOp) that Partition and OnLink can match on.
type MemNetwork struct {
	mu        sync.Mutex // guards listeners
	listeners map[string]*memListener

	// Every send reads these two without a lock: links must not contend on
	// one network-wide mutex per frame.
	inj   atomic.Pointer[faults.Injector]
	sched atomic.Pointer[wireSchedule]

	delivered atomic.Int64
	dropped   atomic.Int64
}

// wireSchedule is a network's record/replay state (see replay.go):
// recording captures the application frame schedule; replay forces sends
// into a captured one. Exactly one of the two is set; replay bypasses the
// injector entirely — the recorded drops already are its decisions. A
// network with neither holds a nil *wireSchedule.
type wireSchedule struct {
	recording *WireRecording
	replay    *Replayer
}

// contentStamper is the optional Transport capability Node.forward probes to
// decide whether to stamp WireEnvelope.Content: true while the transport's
// network is recording or replaying.
type contentStamper interface{ stampContent() bool }

// NewMemNetwork returns an empty in-process network. If an ambient
// recording or replay is installed (SetAmbientRecording / SetAmbientReplay,
// for the CLI -record/-replay flags), the network adopts it.
func NewMemNetwork() *MemNetwork {
	m := &MemNetwork{listeners: map[string]*memListener{}}
	if rec, rep := ambientWire(); rep != nil {
		m.Replay(rep)
	} else if rec != nil {
		m.sched.Store(&wireSchedule{recording: rec})
	}
	return m
}

// Record begins capturing this network's application-frame schedule into a
// fresh recording carrying seed (the workload's fault-injector seed, stored
// so a replay harness can rebuild the identical run). The returned recording
// grows live; Snapshot or Save it once the run has quiesced. Passing the
// result of a previous Record replaces it; recording stops when the network
// is replaced or via Replay.
func (m *MemNetwork) Record(seed int64) *WireRecording {
	rec := NewWireRecording(seed)
	m.sched.Store(&wireSchedule{recording: rec})
	return rec
}

// Replay forces this network's application frames into rec's schedule (nil
// stops replaying). While replaying, the fault injector is bypassed for both
// sends and dials: the recorded drops are re-applied verbatim and dials
// always succeed, so the re-execution sees exactly the recorded wire.
func (m *MemNetwork) Replay(rec *WireRecording) {
	if rec == nil {
		m.sched.Store(nil)
		return
	}
	m.sched.Store(&wireSchedule{replay: NewReplayer(rec)})
}

func (m *MemNetwork) replayer() *Replayer {
	if s := m.sched.Load(); s != nil {
		return s.replay
	}
	return nil
}

// recordSend appends one application-frame decision to the active recording,
// if any. Classification runs only while recording, and append order under
// the recording's lock is the schedule.
func (m *MemNetwork) recordSend(src, dst string, drop bool, frame []byte) {
	s := m.sched.Load()
	if s == nil || s.recording == nil {
		return
	}
	isMsg, content := msgFrameInfo(frame)
	if !isMsg {
		return
	}
	s.recording.add(WireEntry{Src: src, Dst: dst, Drop: drop, Content: content})
}

// SetInjector installs (or replaces, or clears with nil) the fault injector
// consulted per frame at faults.SiteWire.
func (m *MemNetwork) SetInjector(inj faults.Injector) { m.inj.Store(&inj) }

func (m *MemNetwork) injector() faults.Injector {
	if p := m.inj.Load(); p != nil {
		return *p
	}
	return nil
}

// Delivered returns the number of frames handed to a receiving connection.
func (m *MemNetwork) Delivered() int64 { return m.delivered.Load() }

// Dropped returns the number of frames discarded by the injector.
func (m *MemNetwork) Dropped() int64 { return m.dropped.Load() }

// Endpoint returns a Transport bound to localAddr as its identity: dials
// made through it stamp wire operations with localAddr as the source.
func (m *MemNetwork) Endpoint(localAddr string) Transport {
	return memEndpoint{net: m, addr: localAddr}
}

type memEndpoint struct {
	net  *MemNetwork
	addr string
}

// stampContent implements contentStamper: nodes on this network stamp
// payload fingerprints while it records or replays.
func (e memEndpoint) stampContent() bool { return e.net.sched.Load() != nil }

func (e memEndpoint) Listen(addr string) (Listener, error) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("remote: mem listen: empty address")
	}
	if _, taken := e.net.listeners[addr]; taken {
		return nil, fmt.Errorf("remote: mem listen: address %q in use", addr)
	}
	l := &memListener{
		net:    e.net,
		addr:   addr,
		accept: make(chan *memConn, 16),
		done:   make(chan struct{}),
	}
	e.net.listeners[addr] = l
	return l, nil
}

func (e memEndpoint) Dial(addr string) (Conn, error) {
	// Dials cross the same faulted wire as frames: a cut or lossy link can
	// refuse connection establishment, which is what keeps a partitioned
	// link down (redials fail) instead of flapping (drops look like
	// successful sends). Replay bypasses the injector: the recorded message
	// schedule already embodies every loss, and connection establishment
	// must succeed for the scheduled frames to flow.
	if inj := e.net.injector(); inj != nil && e.net.replayer() == nil {
		switch d := inj.Decide(faults.WireOp(e.addr, addr, "dial")); d.Action {
		case faults.ActDrop:
			e.net.dropped.Add(1)
			return nil, fmt.Errorf("remote: mem dial %q: connection refused (injected)", addr)
		case faults.ActDelay:
			time.Sleep(d.Delay)
		}
	}
	e.net.mu.Lock()
	l, ok := e.net.listeners[addr]
	e.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("remote: mem dial %q: connection refused", addr)
	}
	// A pair of unidirectional channels; both conns share one done channel
	// so a Close from either side unblocks both.
	const connBuf = 4096
	d2l := make(chan memFrame, connBuf)
	l2d := make(chan memFrame, connBuf)
	done := make(chan struct{})
	var once sync.Once
	dialer := &memConn{net: e.net, src: e.addr, dst: addr, out: d2l, in: l2d, done: done, once: &once}
	server := &memConn{net: e.net, src: addr, dst: e.addr, out: l2d, in: d2l, done: done, once: &once}
	select {
	case l.accept <- server:
		return dialer, nil
	case <-l.done:
		return nil, fmt.Errorf("remote: mem dial %q: connection refused", addr)
	}
}

type memListener struct {
	net    *MemNetwork
	addr   string
	accept chan *memConn
	done   chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

// memConn is one direction-pair endpoint. src/dst are node addresses from
// the endpoint's perspective, used to build the SiteWire Op.
type memConn struct {
	net      *MemNetwork
	src, dst string
	out      chan<- memFrame
	in       <-chan memFrame
	done     chan struct{}
	once     *sync.Once
}

// memFrame is one frame in flight. due, when non-zero, is the unixnano
// before which the receiver may not see it: an injected wire delay is time
// in flight, not time the sender spends blocked, so a delayed frame holds
// up the frames behind it (the connection stays FIFO) but not its sender.
type memFrame struct {
	buf []byte
	due int64
}

func (c *memConn) Send(frame []byte) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	// followup, when set, emits held frames this send released from the
	// replayer's reorder buffer; it runs after this frame's own delivery so
	// releases land behind the frame that unblocked them.
	var followup func()
	var due int64
	if rp := c.net.replayer(); rp != nil {
		// Replay: application frames take their recorded schedule turn —
		// a recorded drop, a hold until their recorded slot, or delivery;
		// control frames pass unscheduled. The injector is bypassed — the
		// schedule is its recorded verdicts.
		if isMsg, content := msgFrameInfo(frame); isMsg {
			var v replayVerdict
			v, followup = rp.gateContent(c.src, c.dst, content, frame, c.emitReplay)
			switch v {
			case replayDrop:
				c.net.dropped.Add(1)
				if followup != nil {
					followup()
				}
				return nil
			case replayHeld:
				// The replayer copied the frame; it will emit later.
				return nil
			}
		}
	} else {
		drop := false
		if inj := c.net.injector(); inj != nil {
			switch d := inj.Decide(faults.WireOp(c.src, c.dst, fmt.Sprintf("%dB", len(frame)))); d.Action {
			case faults.ActDrop:
				drop = true
			case faults.ActDelay:
				due = time.Now().Add(d.Delay).UnixNano()
			}
		}
		c.net.recordSend(c.src, c.dst, drop, frame)
		if drop {
			// Lost frame: the transport accepted it, the peer never sees
			// it. The sender cannot tell — that is the point.
			c.net.dropped.Add(1)
			return nil
		}
	}
	// Copy before handing off: Send must not retain the caller's frame
	// (it may be a static heartbeat or a link writer's scratch buffer that
	// is reused for the next frame), and the receiver recycles whatever
	// Recv returns via putFrame — so the copy comes from the same pool.
	buf := getFrame(len(frame))
	copy(buf, frame)
	select {
	case c.out <- memFrame{buf: buf, due: due}:
		c.net.delivered.Add(1)
		if followup != nil {
			followup()
		}
		return nil
	case <-c.done:
		putFrame(buf)
		if followup != nil {
			followup() // released frames still try to land; emit handles done
		}
		return ErrClosed
	}
}

// emitReplay lands one frame released from the replayer's reorder buffer:
// buf is already a pooled copy, so it is either handed to the receiver or
// recycled on a recorded drop / dead connection.
func (c *memConn) emitReplay(buf []byte, drop bool) {
	if drop {
		c.net.dropped.Add(1)
		putFrame(buf)
		return
	}
	select {
	case c.out <- memFrame{buf: buf}:
		c.net.delivered.Add(1)
	case <-c.done:
		putFrame(buf)
	}
}

func (c *memConn) Recv() ([]byte, error) {
	select {
	case f := <-c.in:
		return c.land(f)
	case <-c.done:
		// Drain frames that raced the close, then report EOF-equivalent.
		select {
		case f := <-c.in:
			return c.land(f)
		default:
			return nil, ErrClosed
		}
	}
}

// land hands a received frame over once its injected delay, if any, has
// passed. A connection closed while the frame is still in flight loses it.
func (c *memConn) land(f memFrame) ([]byte, error) {
	if f.due == 0 {
		return f.buf, nil
	}
	if wait := time.Until(time.Unix(0, f.due)); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.done:
			putFrame(f.buf)
			return nil, ErrClosed
		}
	}
	return f.buf, nil
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
