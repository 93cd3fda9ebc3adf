package remote

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config shapes a Node.
type Config struct {
	// ListenAddr is the address the node's listener binds ("127.0.0.1:0"
	// for TCP, any unique string for a MemNetwork endpoint). The resolved
	// address — Node.Addr() — is the node's identity: peers dial it, and
	// replies are routed back to it.
	ListenAddr string
	// Transport moves frames (required).
	Transport Transport
	// System is the actor system the node serves. When nil, the node
	// creates one with default config and shuts it down on Close.
	System *actors.System
	// HeartbeatInterval is how often an idle link probes its peer
	// (default 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a link tolerates silence before it
	// declares the peer unreachable, tears the connection down, and starts
	// reconnecting (default 4 × HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// ReconnectMin / ReconnectMax bound the jittered exponential backoff
	// between dial attempts (defaults 10ms / 1s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Seed makes reconnect jitter deterministic (0 uses a fixed seed).
	Seed int64
	// OutboxCap bounds each link's outbound frame queue (default 256).
	// A full outbox deadletters the send instead of blocking it.
	OutboxCap int
	// CreditWindow is the per-connection credit window this node grants to
	// its peers: the number of messages a sender may have in flight beyond
	// what this node has already received (default 1024). Each receiver
	// meters its own inbound connections. The window bounds
	// receiver-side queue growth per link; senders that exhaust it queue
	// behind their link's parked manager, and once the outbox also fills,
	// sends deadletter as Overloaded instead of buffering without bound.
	CreditWindow int
	// RecordWire, when true, logs every application frame sent and
	// received as a WireEvent (see Node.WireEvents / Node.LamportLog) so
	// cross-node traces can be merged into one causal diagram. Off by
	// default: the log grows with traffic.
	RecordWire bool
	// Gossip, when set, piggybacks membership digests on the node's
	// heartbeat cadence: every heartbeat tick on a dial-out link also carries
	// one FrameGossip with GossipDigest's bytes, and every inbound
	// FrameGossip is handed to OnGossip (a node without a hook ignores
	// them). Digests are opaque to this layer — internal/cluster owns their
	// encoding. Both hook methods run on link goroutines and must not block.
	Gossip GossipHook
	// OnLinkState, when set, is called on every dial-out link liveness
	// transition: up=true once the link's hello is on the wire, up=false
	// when a dial fails or an established connection dies (heartbeat
	// timeout included). Exactly one call per transition — redial churn
	// while a peer stays down does not repeat the down report. This is the
	// failure-detection signal cluster membership rides; the callback runs
	// on the link's manager goroutine and must not block.
	OnLinkState func(peer string, up bool)
}

// GossipHook is the membership side-channel a cluster layer plugs into a
// Node: digests ride the existing heartbeat cadence instead of a second
// timer wheel, so failure detection and state dissemination share one
// liveness mechanism.
type GossipHook interface {
	// GossipDigest returns the bytes to piggyback on the next heartbeat to
	// peer; empty means nothing to send this tick. Digests must be
	// self-contained snapshots (the transport may drop any one of them).
	GossipDigest(peer string) []byte
	// OnGossip merges a digest received from the node listening at from.
	OnGossip(from string, digest []byte)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 10 * time.Millisecond
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = time.Second
		if c.ReconnectMax < c.ReconnectMin {
			c.ReconnectMax = 4 * c.ReconnectMin
		}
	}
	if c.OutboxCap <= 0 {
		c.OutboxCap = 256
	}
	if c.CreditWindow <= 0 {
		c.CreditWindow = 1024
	}
	return c
}

// Node connects one actors.System to its peers: a listener for inbound
// frames, dial-out links for outbound ones, a name registry for exported
// actors, and proxy Refs for remote ones. See the package comment for the
// delivery contract.
type Node struct {
	cfg    Config
	sys    *actors.System
	ownSys bool
	tr     Transport
	lis    Listener
	addr   string
	clock  trace.LamportClock

	rngMu sync.Mutex
	rng   *rand.Rand

	// links and names are copy-on-write maps: every message reads one of
	// them (forward finds its link, dispatch its named target), so readers
	// load the current map without a lock, and the rare writers (linkTo's
	// first use of a peer, Register, Unregister) copy it under mu.
	links atomic.Pointer[map[string]*link]
	names atomic.Pointer[map[string]*actors.Ref]

	mu      sync.Mutex
	proxies map[string]*actors.Ref
	conns   []Conn
	closed  bool

	seq           atomic.Uint64
	sent          atomic.Int64
	received      atomic.Int64
	remoteDead    atomic.Int64
	reconnects    atomic.Int64
	hbTimeouts    atomic.Int64
	encodeErrs    atomic.Int64
	decodeErrs    atomic.Int64
	bytesSent     atomic.Int64
	bytesRecv     atomic.Int64
	batches       atomic.Int64
	batchedFrames atomic.Int64
	directWrites  atomic.Int64

	// Flow-control counters. creditStalls: times a link manager parked on an
	// empty window; creditFramesSent/Recv: FrameCredit traffic (sent as
	// receiver, received as sender); creditsGranted: cumulative messages
	// worth of credit issued; outboxOverflows: sends shed because a live
	// link's outbox was full; creditedConns: connections whose hello-ack
	// opened the credit window (sent as receiver, received as dialer);
	// inboundShed: inbound messages shed because the target's bounded
	// mailbox was full (the reader never blocks — see dispatch).
	creditStalls     atomic.Int64
	creditFramesSent atomic.Int64
	creditFramesRecv atomic.Int64
	creditsGranted   atomic.Int64
	outboxOverflows  atomic.Int64
	creditedConns    atomic.Int64
	inboundShed      atomic.Int64

	// Gossip counters: FrameGossip traffic in each direction.
	gossipSent atomic.Int64
	gossipRecv atomic.Int64

	// metricsReg/metricsPrefix remember the RegisterMetrics registry so
	// links created later still get their per-link gauges (guarded by mu).
	metricsReg    *metrics.Registry
	metricsPrefix string

	// hbAck is the pre-encoded heartbeat answer, the one frame a node sends
	// often enough to keep as static bytes. Lamport 0: liveness probes are
	// not causal events, and Observe(0) is a no-op on the receiver.
	hbAck []byte

	// rtt, when set (RegisterMetrics), receives heartbeat round-trip times
	// measured on every dial-out link. An atomic pointer so links read it
	// without locks; nil means unobserved.
	rtt atomic.Pointer[metrics.LatencyHistogram]

	evMu   sync.Mutex
	events []WireEvent

	done chan struct{}
	wg   sync.WaitGroup
}

// NewNode binds cfg.ListenAddr and starts accepting. The returned node is
// ready for Register / RefFor / Connect.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("remote: Config.Transport is required")
	}
	cfg = cfg.withDefaults()
	lis, err := cfg.Transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %q: %w", cfg.ListenAddr, err)
	}
	n := &Node{
		cfg:     cfg,
		sys:     cfg.System,
		tr:      cfg.Transport,
		lis:     lis,
		addr:    lis.Addr(),
		rng:     rand.New(rand.NewSource(cfg.Seed + 0x9e37)),
		proxies: map[string]*actors.Ref{},
		done:    make(chan struct{}),
	}
	n.links.Store(&map[string]*link{})
	n.names.Store(&map[string]*actors.Ref{})
	n.hbAck = appendEnvelope(nil, &WireEnvelope{Kind: FrameHeartbeatAck, FromAddr: n.addr})
	if n.sys == nil {
		n.sys = actors.NewSystem(actors.Config{})
		n.ownSys = true
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's resolved listen address — its identity on the
// wire.
func (n *Node) Addr() string { return n.addr }

// System returns the actor system this node serves.
func (n *Node) System() *actors.System { return n.sys }

// Clock returns the node's Lamport clock (ticked on send, merged on
// receive).
func (n *Node) Clock() *trace.LamportClock { return &n.clock }

// Register exports ref under name: peers reach it via "name@<this addr>".
// Re-registering a name replaces the previous binding.
func (n *Node) Register(name string, ref *actors.Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := maps.Clone(*n.names.Load())
	names[name] = ref
	n.names.Store(&names)
}

// Unregister removes a name. In-flight frames addressed to it deadletter.
func (n *Node) Unregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := maps.Clone(*n.names.Load())
	delete(names, name)
	n.names.Store(&names)
}

// RefFor resolves "name@addr" to a proxy Ref whose Tell/Ask cross the wire.
// The link to addr starts dialing immediately in the background; use
// Connect to wait for it. Sends before the link is up (or while the peer is
// partitioned away) deadletter rather than block.
func (n *Node) RefFor(target string) (*actors.Ref, error) {
	name, addr, ok := strings.Cut(target, "@")
	if !ok || name == "" || addr == "" {
		return nil, fmt.Errorf("remote: malformed target %q (want name@addr)", target)
	}
	if n.isClosed() {
		return nil, ErrClosed
	}
	n.linkTo(addr)
	return n.proxyRef("name:"+target, target, addr, name), nil
}

// RefByID returns a proxy Ref addressing the actor with the given system ID
// on the node at addr, displayed under the given name. It is how a routing
// layer (internal/cluster) reconstructs a reply path for a message it
// forwarded on: the origin's address and actor ID travel inside the routed
// payload, and the final host materializes the sender proxy from them so
// replies cross the wire directly back to the origin node instead of
// retracing the forwarding chain. Like every ID-addressed proxy it is built
// per call, not cached: the IDs are mostly one-shot ask reply slots.
func (n *Node) RefByID(addr string, id uint64, display string) *actors.Ref {
	if addr == "" || id == 0 {
		return nil
	}
	n.linkTo(addr)
	return n.idProxy(display, addr, id)
}

// Forward hands e to the named actor on the node at addr and reports the
// link's verdict synchronously — the same ProxyStatus a proxy Ref's deliver
// function returns, without routing through one. Layers that stack their own
// proxies on top of the wire (internal/cluster) use it so the outer proxy
// can surface the inner refusal as its own status: returning the status is
// what lets the caller's System record exactly one deadletter, at the outer
// layer, with the right kind.
func (n *Node) Forward(addr, name string, e actors.Envelope) actors.ProxyStatus {
	return n.forward(addr, name, 0, e)
}

// Connect blocks until the link to addr is established, or the timeout
// elapses. It is optional — RefFor alone will get there eventually — but
// turns the initial dial race into a clean error.
func (n *Node) Connect(addr string, timeout time.Duration) error {
	if n.isClosed() {
		return ErrClosed
	}
	l := n.linkTo(addr)
	deadline := time.Now().Add(timeout)
	for !l.isUp() {
		if time.Now().After(deadline) {
			return fmt.Errorf("remote: connect %s: timed out after %s", addr, timeout)
		}
		select {
		case <-n.done:
			return ErrClosed
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Stats is a snapshot of the node's wire counters.
type Stats struct {
	Sent              int64 // application frames accepted onto a link
	Received          int64 // frames received and decoded (all kinds)
	RemoteDeadLetters int64 // inbound frames with no live target
	Reconnects        int64 // links re-established after a drop
	HeartbeatTimeouts int64 // links torn down for peer silence
	EncodeErrors      int64
	DecodeErrors      int64
	BytesSent         int64 // encoded frame bytes written (all frame kinds)
	BytesReceived     int64 // frame bytes read (all frame kinds)
	Batches           int64 // write batches flushed (a sender's direct write is a batch of one)
	BatchedFrames     int64 // application+control frames those batches carried
	DirectWrites      int64 // frames their sender wrote itself, bypassing the outbox
	CreditedConns     int64 // connections whose hello-ack opened the credit window (either end)
	CreditStalls      int64 // link managers parked on an exhausted credit window
	CreditFramesSent  int64 // FrameCredit grants issued to inbound senders
	CreditFramesRecv  int64 // FrameCredit grants received on dial-out links
	CreditsGranted    int64 // cumulative messages worth of credit issued
	OutboxOverflows   int64 // sends shed because a live link's outbox was full
	InboundShed       int64 // inbound messages shed at a full bounded mailbox
	GossipFramesSent  int64 // membership digests piggybacked on heartbeat ticks
	GossipFramesRecv  int64 // membership digests received and handed to the hook
	ProxyRefs         int64 // proxy Refs cached for named targets and their tombstones
}

// Stats returns the node's current wire counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	proxies := int64(len(n.proxies))
	n.mu.Unlock()
	return Stats{
		Sent:              n.sent.Load(),
		Received:          n.received.Load(),
		RemoteDeadLetters: n.remoteDead.Load(),
		Reconnects:        n.reconnects.Load(),
		HeartbeatTimeouts: n.hbTimeouts.Load(),
		EncodeErrors:      n.encodeErrs.Load(),
		DecodeErrors:      n.decodeErrs.Load(),
		BytesSent:         n.bytesSent.Load(),
		BytesReceived:     n.bytesRecv.Load(),
		Batches:           n.batches.Load(),
		BatchedFrames:     n.batchedFrames.Load(),
		DirectWrites:      n.directWrites.Load(),
		CreditedConns:     n.creditedConns.Load(),
		CreditStalls:      n.creditStalls.Load(),
		CreditFramesSent:  n.creditFramesSent.Load(),
		CreditFramesRecv:  n.creditFramesRecv.Load(),
		CreditsGranted:    n.creditsGranted.Load(),
		OutboxOverflows:   n.outboxOverflows.Load(),
		InboundShed:       n.inboundShed.Load(),
		GossipFramesSent:  n.gossipSent.Load(),
		GossipFramesRecv:  n.gossipRecv.Load(),
		ProxyRefs:         proxies,
	}
}

// LinkInfo is one dial-out link's live state, for introspection surfaces
// (the /debug/cluster endpoint). Credits is -1 while the connection is
// down.
type LinkInfo struct {
	Peer        string `json:"peer"`
	State       string `json:"state"` // connecting, up, down
	OutboxDepth int64  `json:"outbox_depth"`
	OutboxCap   int    `json:"outbox_cap"`
	Credits     int64  `json:"credits"`
}

// Links snapshots every dial-out link, sorted by peer address.
func (n *Node) Links() []LinkInfo {
	links := *n.links.Load()
	out := make([]LinkInfo, 0, len(links))
	for addr, l := range links {
		state := "connecting"
		switch l.state.Load() {
		case linkUp:
			state = "up"
		case linkDown:
			state = "down"
		}
		out = append(out, LinkInfo{
			Peer:        addr,
			State:       state,
			OutboxDepth: l.depth(),
			OutboxCap:   n.cfg.OutboxCap,
			Credits:     l.credits(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// RegisterMetrics exposes the node's counters as gauges named
// prefix.<metric> — the remote half of the observability surface whose
// local half is actors.System.RegisterMetrics.
func (n *Node) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix+".wire.sent", n.sent.Load)
	reg.Gauge(prefix+".wire.received", n.received.Load)
	reg.Gauge(prefix+".wire.deadletters", n.remoteDead.Load)
	reg.Gauge(prefix+".wire.reconnects", n.reconnects.Load)
	reg.Gauge(prefix+".wire.heartbeat_timeouts", n.hbTimeouts.Load)
	reg.Gauge(prefix+".wire.encode_errors", n.encodeErrs.Load)
	reg.Gauge(prefix+".wire.decode_errors", n.decodeErrs.Load)
	reg.Gauge(prefix+".wire.bytes_sent", n.bytesSent.Load)
	reg.Gauge(prefix+".wire.bytes_received", n.bytesRecv.Load)
	reg.Gauge(prefix+".wire.batches", n.batches.Load)
	reg.Gauge(prefix+".wire.batched_frames", n.batchedFrames.Load)
	reg.Gauge(prefix+".wire.direct_writes", n.directWrites.Load)
	reg.Gauge(prefix+".wire.credited_conns", n.creditedConns.Load)
	reg.Gauge(prefix+".wire.credit_stalls", n.creditStalls.Load)
	reg.Gauge(prefix+".wire.credit_frames_sent", n.creditFramesSent.Load)
	reg.Gauge(prefix+".wire.credit_frames_received", n.creditFramesRecv.Load)
	reg.Gauge(prefix+".wire.credits_granted", n.creditsGranted.Load)
	reg.Gauge(prefix+".wire.outbox_overflows", n.outboxOverflows.Load)
	reg.Gauge(prefix+".wire.inbound_shed", n.inboundShed.Load)
	reg.Gauge(prefix+".wire.gossip_sent", n.gossipSent.Load)
	reg.Gauge(prefix+".wire.gossip_received", n.gossipRecv.Load)
	reg.Gauge(prefix+".wire.links", func() int64 { return int64(len(*n.links.Load())) })
	// Heartbeat round-trip time, the link-health latency series: stamped at
	// heartbeat send on each dial-out link, observed when the ack returns.
	n.rtt.Store(reg.Histogram(prefix + ".wire.heartbeat_rtt_ns"))
	// Per-link occupancy gauges: existing links now, future ones as linkTo
	// creates them (the registry and prefix are remembered for that).
	n.mu.Lock()
	n.metricsReg, n.metricsPrefix = reg, prefix
	links := *n.links.Load()
	n.mu.Unlock()
	for addr, l := range links {
		n.registerLinkGauges(reg, prefix, addr, l)
	}
}

// registerLinkGauges exposes one link's queue depth and remaining credit
// window as prefix.wire.link.<peer>.{outbox_depth,credits}. credits reads
// -1 while the connection is down.
func (n *Node) registerLinkGauges(reg *metrics.Registry, prefix, addr string, l *link) {
	reg.Gauge(prefix+".wire.link."+addr+".outbox_depth", l.depth)
	reg.Gauge(prefix+".wire.link."+addr+".credits", l.credits)
}

// Close stops the listener, tears down every link and inbound connection,
// and waits for the node's goroutines. If the node created its own System
// it is shut down too. Close is idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return nil
	}
	n.closed = true
	conns := n.conns
	n.conns = nil
	n.mu.Unlock()
	close(n.done)
	_ = n.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	n.wg.Wait()
	if n.ownSys {
		n.sys.Shutdown()
	}
	return nil
}

func (n *Node) isClosed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// linkTo returns the link to addr, creating and starting it on first use.
func (n *Node) linkTo(addr string) *link {
	if l, ok := (*n.links.Load())[addr]; ok {
		return l
	}
	n.mu.Lock()
	if l, ok := (*n.links.Load())[addr]; ok {
		n.mu.Unlock()
		return l
	}
	l := newLink(n, addr)
	links := maps.Clone(*n.links.Load())
	links[addr] = l
	n.links.Store(&links)
	if !n.closed {
		n.wg.Add(1)
		go l.run()
	}
	reg, prefix := n.metricsReg, n.metricsPrefix
	n.mu.Unlock()
	if reg != nil {
		n.registerLinkGauges(reg, prefix, addr, l)
	}
	return l
}

// proxyRef returns the cached proxy Ref under key for the actor registered
// as name on the node at addr, creating it on first use; display is the
// Ref's human-readable name. Named targets are few and long-lived, so the
// cache stays small.
func (n *Node) proxyRef(key, display, addr, name string) *actors.Ref {
	n.mu.Lock()
	if p, ok := n.proxies[key]; ok {
		n.mu.Unlock()
		return p
	}
	n.mu.Unlock()
	ref := n.sys.NewProxyRefStatus(display, func(e actors.Envelope) actors.ProxyStatus {
		return n.forward(addr, name, 0, e)
	})
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.proxies[key]; ok {
		return p // lost the creation race; keep the first
	}
	n.proxies[key] = ref
	return ref
}

// idProxy builds a proxy Ref for the actor with system ID id on the node at
// addr. It is not cached: most such IDs are the reply slots of single asks,
// so a cache would grow by one entry per remote ask and never shrink.
func (n *Node) idProxy(display, addr string, id uint64) *actors.Ref {
	return n.sys.NewProxyRefStatus(display, func(e actors.Envelope) actors.ProxyStatus {
		return n.forward(addr, "", id, e)
	})
}

// forward is the proxy delivery function: it stamps e into a pooled wire
// envelope and hands it to the link to addr, which writes the frame on this
// goroutine when the link is idle and queues it for the link's manager
// otherwise (link.send). It never waits on another sender or on credit; a
// refusal deadletters the envelope in the calling System, with the status
// distinguishing a down/closed link (ProxyUnreachable → DLRemote) from a
// full outbox on a live one (ProxyOverloaded → DLOverloaded) — the latter
// is what a credit-stalled link eventually backs sends up into.
func (n *Node) forward(addr, name string, id uint64, e actors.Envelope) actors.ProxyStatus {
	if addr == "" || n.isClosed() {
		// addr "" is the tombstone proxy: it exists only to name a dead
		// destination in deadletter hooks and never forwards.
		return actors.ProxyUnreachable
	}
	w := getEnvelope()
	w.Kind = FrameMsg
	w.To = name
	w.ToID = id
	w.FromAddr = n.addr
	w.Payload = e.Msg
	w.Seq = n.seq.Add(1)
	if e.Sender != nil {
		w.FromID = e.Sender.ID()
		w.FromName = e.Sender.Name()
	}
	if st, ok := n.tr.(contentStamper); ok && st.stampContent() {
		// Record/replay is active on this transport: fingerprint the payload
		// so the wire schedule can pin same-link content order (replay.go),
		// and keep the frame decodable in isolation, because the replayer
		// reorders frames to force that order.
		w.Content = contentHash(name, id, e.Msg)
		w.flags = frameFlagSelfContained
	}
	// The span migrates with the message: ownership transfers to the wire
	// envelope here, and whoever writes the frame either serializes it
	// (traced peer) or seals it at the wire boundary (untraced peer). On a
	// refused send ownership stays with e — the caller's deadletter path
	// finishes the span with the refusal kind.
	w.span = e.Span
	w.Lamport = n.clock.Tick()
	// w goes back to the pool the moment it is encoded, so nothing here may
	// touch w after a successful send.
	seq, lam := w.Seq, w.Lamport
	switch n.linkTo(addr).send(w) {
	case enqDown:
		putEnvelope(w)
		return actors.ProxyUnreachable
	case enqFull:
		putEnvelope(w)
		n.outboxOverflows.Add(1)
		return actors.ProxyOverloaded
	}
	n.sent.Add(1)
	if n.cfg.RecordWire {
		n.recordWire("send", addr, seq, lam, payloadType(e.Msg))
	}
	return actors.ProxyDelivered
}

// acceptLoop owns the listener.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.lis.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = c.Close()
			return
		}
		n.conns = append(n.conns, c)
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn reads one inbound connection until it closes, answering the
// hello and heartbeats and dispatching application frames through the
// connection's payload decode session. Any decode error means the stream may
// be desynchronized — typically a lost frame took gob type descriptors with
// it — so the connection is torn down and the dialer starts fresh sessions
// on reconnect. A hello carrying another protocol is refused the same way.
//
// Decoding and credit state exist from the first frame, not from the hello:
// a dropped hello costs only its ack, whose grant the first heartbeat
// resends.
func (n *Node) serveConn(c Conn) {
	defer n.wg.Done()
	defer c.Close()
	sess := newDecSession()
	cred := newCreditState(n, c)
	var env WireEnvelope // reused decode target
	for {
		frame, err := c.Recv()
		if err != nil {
			return
		}
		n.bytesRecv.Add(int64(len(frame)))
		env = WireEnvelope{}
		err = sess.decodeFrame(frame, &env)
		putFrame(frame)
		if err != nil || env.Kind == FrameHello && env.Seq != wireProtocol {
			n.decodeErrs.Add(1)
			return
		}
		w := &env
		// Clock merge on receive: the Lamport max-rule, so every frame —
		// heartbeats included — keeps the two nodes' clocks entangled.
		lam := n.clock.Observe(w.Lamport)
		n.received.Add(1)
		switch w.Kind {
		case FrameHello:
			var flags uint8
			if n.sys.Tracer() != nil {
				flags = frameFlagTraced
			}
			cred.ack(flags)
		case FrameHeartbeat:
			cred.onHeartbeat(int64(w.Seq))
			if c.Send(n.hbAck) == nil {
				n.bytesSent.Add(int64(len(n.hbAck)))
			}
		case FrameMsg:
			if n.cfg.RecordWire {
				n.recordWire("recv", w.FromAddr, w.Seq, lam, payloadType(w.Payload))
			}
			n.dispatch(w, cred)
			cred.onDelivered()
		case FrameGossip:
			if g := n.cfg.Gossip; g != nil && w.To != "" {
				n.gossipRecv.Add(1)
				g.OnGossip(w.FromAddr, []byte(w.To))
			}
		}
	}
}

// creditState is the receiver half of flow control for one inbound
// connection. It counts the messages the connection delivered and those of
// them still waiting in local mailboxes (pending), and returns cumulative
// grants — the hello-ack first, then piggybacked on the message path
// (batched) and forced on heartbeats — while pending stays below the
// window. A grant withheld because pending reached the window is sent by
// the release that drops pending below it: the worker dequeuing a message
// reopens the window, so a stalled sender resumes without waiting for a
// heartbeat.
type creditState struct {
	n      *Node
	c      Conn
	window int64
	// pending counts this connection's messages that a local mailbox or
	// worker batch holds and no worker has dequeued for processing yet.
	// dispatch adds one before the put; release takes it back.
	pending atomic.Int64
	release func() // cr.released, bound once and handed to every put

	mu        sync.Mutex
	delivered int64  // FrameMsg received (or known lost) since the connection opened
	granted   int64  // last cumulative grant sent
	scratch   []byte // grow-only encode buffer for grant frames
}

func newCreditState(n *Node, c Conn) *creditState {
	cr := &creditState{n: n, c: c, window: int64(n.cfg.CreditWindow)}
	cr.release = cr.released
	return cr
}

// released takes back one pending message: the worker dequeued it, or it
// deadlettered. The release that takes pending from the window to one below
// it sends a grant, because the read loop may have withheld one and there
// may be no further inbound frame to send it. No withheld grant is missed:
// pending was at least the window when the read loop withheld it under mu,
// pending moves one step at a time, so it can only fall below the window
// through such a release, and that release takes mu after the read loop.
func (cr *creditState) released() {
	if cr.pending.Add(-1) == cr.window-1 {
		cr.mu.Lock()
		cr.grantLocked(true)
		cr.mu.Unlock()
	}
}

// ack answers the hello with the connection's first grant: a full window
// past whatever has been delivered (nothing, unless the hello was late).
func (cr *creditState) ack(flags uint8) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	want := max(cr.granted, cr.delivered+cr.window)
	if cr.sendLocked(FrameHelloAck, flags, want) {
		cr.n.creditedConns.Add(1)
	}
}

// onDelivered records one dispatched message and runs the batched grant
// path — the per-frame hook on the read loop.
func (cr *creditState) onDelivered() {
	cr.mu.Lock()
	cr.delivered++
	cr.grantLocked(false)
	cr.mu.Unlock()
}

// onHeartbeat takes the dialer's written-message count: on an ordered
// connection everything written before the probe has arrived or been lost,
// so the lost ones count as delivered and stop shrinking the window. It then
// forces a grant, skipping the quarter-window batching.
func (cr *creditState) onHeartbeat(written int64) {
	cr.mu.Lock()
	cr.delivered = max(cr.delivered, written)
	cr.grantLocked(true)
	cr.mu.Unlock()
}

// grantLocked returns credits to the sender when the window is open: the
// cumulative target is delivered+window, withheld while this connection's
// pending messages fill the window (that is the backpressure), and batched
// to quarter-window steps on the message path so a flood costs ~4 credit
// frames per window, not one per message.
//
// A forced grant resends the current cumulative grant even when it has not
// moved, so a lost hello-ack or FrameCredit heals within one heartbeat.
func (cr *creditState) grantLocked(force bool) {
	want := cr.granted
	if w := cr.delivered + cr.window; cr.pending.Load() < cr.window && w > want && (force || w-want >= cr.window/4) {
		want = w
	}
	if want > cr.granted || (force && want > 0) {
		cr.sendLocked(FrameCredit, 0, want)
	}
}

// sendLocked writes one grant frame (hello-ack or credit) for the cumulative
// grant want and records it; false means the connection is dying, which the
// reader will notice.
func (cr *creditState) sendLocked(kind FrameKind, flags uint8, want int64) bool {
	n := cr.n
	cr.scratch = appendEnvelope(cr.scratch[:0], &WireEnvelope{
		Kind: kind, flags: flags, FromAddr: n.addr, Seq: uint64(want),
	})
	if cr.c.Send(cr.scratch) != nil {
		return false
	}
	n.bytesSent.Add(int64(len(cr.scratch)))
	if kind == FrameCredit {
		n.creditFramesSent.Add(1)
	}
	n.creditsGranted.Add(want - cr.granted)
	cr.granted = want
	return true
}

// dispatch routes one inbound application frame into the local system. A
// message handed to a live target counts as pending on the connection's
// credit state until the target dequeues or deadletters it. A name may be
// bound to a proxy Ref (the cluster's router is one): its deliver function
// then runs right here, on the reader, and must not block either.
func (n *Node) dispatch(w *WireEnvelope, cr *creditState) {
	var sender *actors.Ref
	if w.FromID != 0 && w.FromAddr != "" {
		sender = n.idProxy(w.FromName+"@"+w.FromAddr, w.FromAddr, w.FromID)
	}
	var target *actors.Ref
	switch {
	case w.ToID != 0:
		target = n.sys.ByID(w.ToID)
	case w.To != "":
		target = (*n.names.Load())[w.To]
	}
	// Rebuild the migrating span the frame carried: the receiving tracer
	// adopts the accumulated ledger and the wire stage absorbs everything
	// since the sender's last mark — outbox wait, encode, flight, decode.
	// A traced frame landing on a tracerless node just drops the ledger.
	var sp *trace.Span
	if w.traced {
		if tr := n.sys.Tracer(); tr != nil {
			actor := w.To
			if actor == "" && target != nil {
				actor = target.Name()
			}
			sp = tr.Adopt(w.wireSpan, actor, payloadType(w.Payload))
			sp.Mark(trace.StageWire, trace.SpanNow())
		}
	}
	if target == nil {
		// Unknown name, or an actor that stopped since the frame was sent
		// (e.g. the reply of an Ask that already timed out): the existing
		// deadletter contract, addressed to a tombstone ref so hooks can
		// still read the intended destination (and seal the span with the
		// refusal kind).
		n.remoteDead.Add(1)
		n.tombstone(w).TellSpan(sender, w.Payload, sp)
		return
	}
	// No-wait delivery: this runs on the connection's reader goroutine, and
	// a send that blocked on a full bounded mailbox would stall heartbeat
	// acks and credit grants for every sender sharing the connection. Where
	// a local Tell would wait, the reader sheds (DLOverloaded in the local
	// system) — the credit window, not the reader, is the backpressure.
	// TellSpan also suppresses local trace origination: roots start at the
	// client's send, never mid-flight on a forwarded message.
	cr.pending.Add(1)
	if !target.TellSpanNoWait(sender, w.Payload, sp, cr.release) {
		n.inboundShed.Add(1)
	}
}

// tombstone returns an always-deadletter proxy for a frame whose target
// does not exist here, named after the intended destination: cached for a
// name, built per frame for an ID (typically the reply to a finished ask).
func (n *Node) tombstone(w *WireEnvelope) *actors.Ref {
	if w.To == "" {
		return n.idProxy(fmt.Sprintf("#%d@%s", w.ToID, n.addr), "", w.ToID)
	}
	display := w.To + "@" + n.addr
	return n.proxyRef("dead:"+display, display, "", "")
}

// recordWire appends one WireEvent when Config.RecordWire is on.
func (n *Node) recordWire(dir, peer string, seq, lamport uint64, msg string) {
	if !n.cfg.RecordWire {
		return
	}
	n.evMu.Lock()
	n.events = append(n.events, WireEvent{Dir: dir, Peer: peer, Seq: seq, Lamport: lamport, Msg: msg})
	n.evMu.Unlock()
}

// WireEvent is one application frame in the node's wire log (RecordWire).
type WireEvent struct {
	Dir     string // "send" or "recv"
	Peer    string // remote node address
	Seq     uint64 // sending node's frame sequence number
	Lamport uint64 // this node's Lamport time at the event
	Msg     string // payload type
}

// WireEvents returns a copy of the node's wire log.
func (n *Node) WireEvents() []WireEvent {
	n.evMu.Lock()
	defer n.evMu.Unlock()
	out := make([]WireEvent, len(n.events))
	copy(out, n.events)
	return out
}

// LamportLog renders the wire log as trace.LamportEvents, ready for
// trace.MergeLamport with other nodes' logs.
func (n *Node) LamportLog() []trace.LamportEvent {
	events := n.WireEvents()
	out := make([]trace.LamportEvent, len(events))
	for i, e := range events {
		out[i] = trace.LamportEvent{
			Node: n.addr,
			Time: e.Lamport,
			What: fmt.Sprintf("%s %s seq=%d peer=%s", e.Dir, e.Msg, e.Seq, e.Peer),
		}
	}
	return out
}

// jitterDur scales d by a uniform factor in [0.5, 1.5) from the node's
// seeded RNG.
func (n *Node) jitterDur(d time.Duration) time.Duration {
	n.rngMu.Lock()
	f := 0.5 + n.rng.Float64()
	n.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}
