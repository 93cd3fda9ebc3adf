package actors

// ProxyStatus is a proxy deliver function's verdict on one envelope. It
// distinguishes the two transient failure modes a remote hop can hit —
// unreachable peer vs. overloaded link — so the sender-side deadletter kind
// and Ask error match what actually went wrong.
type ProxyStatus int

const (
	// ProxyDelivered: the envelope was accepted for forwarding.
	ProxyDelivered ProxyStatus = iota
	// ProxyUnreachable: the peer is down or unknown; the envelope
	// deadletters as DLRemote and Ask fails fast with ErrPeerUnreachable.
	ProxyUnreachable
	// ProxyOverloaded: the forwarding path exists but has no room — a full
	// outbox or an exhausted credit window. The envelope deadletters as
	// DLOverloaded and Ask fails fast with ErrOverloaded, which AskRetry
	// backs off on.
	ProxyOverloaded
	// ProxyMoving: the target's shard is mid-handoff between cluster nodes
	// (internal/cluster) and the proxy could neither deliver nor buffer the
	// envelope. The envelope deadletters as DLMoving and Ask fails fast with
	// ErrShardMoving — transient by construction: the rebalance completes and
	// a retry resolves the new owner, so AskRetry backs off on it exactly
	// like ErrOverloaded.
	ProxyMoving
)

// NewProxyRef creates a Ref that stands in for an actor living outside this
// system — typically on another node (internal/remote), or a test double.
// Sends on the Ref go through the normal delivery pipeline (fault injection
// included) and are then handed to deliver instead of a local mailbox.
//
// deliver must not block: it is called on the sender's goroutine. It reports
// whether the message was accepted for forwarding; a false return routes the
// envelope to the system's deadletter hook with kind DLRemote, which is how
// an unreachable peer surfaces — the send never blocks, it deadletters.
// Control messages (poison pills, restart directives) never reach deliver:
// they deadletter, because remote lifecycle is the remote system's business.
//
// The Ref draws its identity from the same ID space as local actors, so
// ID() is unique within the system, but the proxy is not registered in the
// routing table: Alive reports false, Await returns immediately, and Ask
// fails fast only when deliver refuses the request.
func (s *System) NewProxyRef(name string, deliver func(Envelope) bool) *Ref {
	return s.NewProxyRefStatus(name, func(e Envelope) ProxyStatus {
		if deliver(e) {
			return ProxyDelivered
		}
		return ProxyUnreachable
	})
}

// NewProxyRefStatus is NewProxyRef for proxies that distinguish failure
// modes: deliver returns a ProxyStatus instead of a bool, so an overloaded
// link (ProxyOverloaded → DLOverloaded, ErrOverloaded) surfaces differently
// from a dead peer (ProxyUnreachable → DLRemote, ErrPeerUnreachable). The
// same non-blocking contract applies.
func (s *System) NewProxyRefStatus(name string, deliver func(Envelope) ProxyStatus) *Ref {
	return &Ref{id: s.nextID.Add(1), name: name, sys: s, proxy: deliver}
}

// IsProxy reports whether the Ref forwards through a proxy function rather
// than a local mailbox.
func (r *Ref) IsProxy() bool { return r != nil && r.proxy != nil }

// ByID returns the live local actor, or the reply slot of a still-waiting
// Ask, with the given ID, or nil if it has stopped, its ask is over, or it
// never existed. Remote transports use it to route a reply addressed by raw
// ID back to the asker; a nil return means the asker is gone (for example an
// Ask that already timed out) and the reply should deadletter.
func (s *System) ByID(id uint64) *Ref {
	if r := s.slots.get(id); r != nil {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.actors[id]; ok {
		return c.ref
	}
	return nil
}
