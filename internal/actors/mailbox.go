// Package actors implements the Actor model the course teaches with Scala:
// actors are computational entities that, in response to a message, can
// (1) send messages to other actors, (2) create new actors, and
// (3) designate the behavior for the next message (Become) — Hewitt's three
// axioms, quoted in the paper. Communication is asynchronous; the runtime
// can optionally perturb delivery order to exhibit the paper's point that
// "two messages sent concurrently can arrive in either order".
package actors

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/trace"
)

// Envelope carries a message together with its sender (which may be nil for
// sends from outside the actor system).
type Envelope struct {
	Msg    any
	Sender *Ref

	// Span is the distributed-tracing context riding this delivery, nil for
	// the (vast) untraced majority. The send path originates one for sampled
	// sends when the system has a Config.Tracer; conduits that already carry
	// a span (remote dispatch, cluster routing) attach it here so the hop
	// continues the trace instead of starting a new one.
	Span *trace.Span

	// noTrace marks an envelope that must not originate a new trace even if
	// sampling would pick it: in-handler sends of an untraced message (a
	// trace that starts mid-protocol has no root) and remote deliveries
	// (the origin node made the sampling decision).
	noTrace bool

	// traceID pairs this envelope's send and receive events when the
	// system runs with a trace.Recorder.
	traceID string

	// enqueuedAt is the send-side wall clock (unix nanoseconds), stamped
	// only when the system runs with Config.Obs so the dequeue side can
	// observe mailbox queue latency. Zero when instrumentation is off.
	enqueuedAt int64
}

// MailboxPolicy selects what a bounded mailbox (Config.MailboxCap) does
// with a non-control send that arrives while the queue is full. It is the
// local half of admission control; the remote half is the credit window in
// internal/remote, and both shed into the same DLOverloaded deadletter kind
// so overload is observable wherever it bites.
type MailboxPolicy int

const (
	// MailboxBlock (default): the sender blocks until a slot opens — classic
	// bounded-mailbox backpressure. A behavior sending through Context.Send
	// hands its worker slot to a spare worker while it waits, so the pool
	// keeps running the consumer it waits on; any other blocked sender (an
	// outside goroutine, a Ref.Tell inside a behavior) simply waits.
	MailboxBlock MailboxPolicy = iota
	// MailboxShed: the message is dropped immediately and deadlettered with
	// kind DLOverloaded. The sender never blocks; Ask fails fast with
	// ErrOverloaded (transient — AskRetry backs off and retries).
	MailboxShed
	// MailboxParkSender: the sender parks for at most Config.ParkTimeout
	// waiting for a slot, then sheds like MailboxShed. Bounded occupancy —
	// a worker can stall briefly but can never be captured indefinitely by
	// one slow consumer.
	MailboxParkSender
)

func (p MailboxPolicy) String() string {
	switch p {
	case MailboxBlock:
		return "block"
	case MailboxShed:
		return "shed"
	case MailboxParkSender:
		return "park-sender"
	default:
		return fmt.Sprintf("MailboxPolicy(%d)", int(p))
	}
}

// putMode tells a mailbox how much waiting a put is allowed to do.
type putMode int8

const (
	// putWait: honor the mailbox's admission policy (block / shed / park).
	putWait putMode = iota
	// putManaged: putWait for a Context.Send on a worker, except that a put
	// that would block under MailboxBlock returns putFull instead, so the
	// caller can hand its worker slot to a spare before it waits.
	putManaged
	// putForce: control message — bypass capacity bounds entirely, so
	// shutdown and supervision can never be wedged by a full queue.
	putForce
	// putNoWait: shed instead of blocking regardless of policy. Used by
	// conduits (the remote dispatch path) that must never stall their
	// reader goroutine; their backpressure tool is the credit window, and
	// a put that would block means credits already failed to prevent
	// overrun — the honest outcome is a counted shed, not a stalled link.
	putNoWait
)

// putResult reports what a mailbox did with an envelope.
type putResult int8

const (
	// putOK: the envelope was enqueued.
	putOK putResult = iota
	// putClosed: the mailbox is closed; the caller deadletters as DLClosed.
	putClosed
	// putShed: admission control refused the envelope (bounded queue full
	// under MailboxShed / ParkSender / putNoWait); the caller deadletters
	// as DLOverloaded.
	putShed
	// putFull: a putManaged put found a MailboxBlock mailbox full and
	// enqueued nothing; the caller retries with putWait.
	putFull
)

// mailbox is a FIFO queue of envelopes. Two implementations exist:
//
//   - ringMailbox (ring.go): the throughput fast path — a chunked MPSC
//     queue with lock-free sends and batched dequeue. Used for unbounded,
//     unperturbed, uninjected mailboxes (the common case).
//   - lockMailbox (below): the fully-featured slow path — a mutex plus a
//     condvar for bounded senders, supporting MailboxCap admission control
//     (block / shed / park-sender) and PerturbSeed random delivery. Also
//     selected when a fault injector is configured, so injected fault
//     timing stays identical to the original runtime.
//
// Neither ever blocks its consumer: the worker pool only drains a mailbox
// after a send scheduled its actor. Concurrency contract shared by both:
// put/close(false)/size may be called from any goroutine; drain and
// close(true) are single-consumer — only the worker holding the cell's
// schedule flag may call them.
type mailbox interface {
	// put enqueues an envelope; mode says whether a full bounded mailbox
	// may block the caller (putWait + MailboxBlock), must shed (putNoWait,
	// or a shedding policy), reports putFull (putManaged + MailboxBlock), or
	// is bypassed entirely (putForce).
	put(e Envelope, mode putMode) putResult
	// drain appends up to max queued envelopes to buf without blocking; it
	// appends none when the mailbox is empty (or closed and drained).
	drain(buf []Envelope, max int) []Envelope
	// close marks the mailbox closed and wakes blocked senders. When
	// discard is true it returns what was still queued (for deadletter
	// accounting); pending messages stay drainable otherwise.
	close(discard bool) []Envelope
	// size returns the number of queued envelopes.
	size() int
}

// newMailbox picks the implementation for one actor: the chunked MPSC ring
// on the fast path, the lock mailbox whenever a feature that needs it
// (backpressure, perturbation, fault injection) is active.
//
// sample, when non-zero (a power of two), makes the mailbox stamp
// Envelope.enqueuedAt on one in sample accepted puts, using the enqueue
// tick each implementation already maintains (the ring's reservation
// counter, the lock mailbox's under-mutex sequence) — so latency sampling
// adds no shared state to the send path.
func newMailbox(perturb *rand.Rand, capacity int, injected bool, sample uint64, policy MailboxPolicy, parkFor time.Duration) mailbox {
	if perturb == nil && capacity <= 0 && !injected {
		return newRingMailbox(sample)
	}
	return newLockMailbox(perturb, capacity, sample, policy, parkFor)
}

// lockMailbox is the mutex-guarded slice mailbox. When perturb is non-nil,
// dequeue picks a uniformly random pending envelope instead of the head,
// modeling unordered asynchronous delivery. When cap > 0, a full queue
// applies the configured MailboxPolicy to non-control puts (block / shed /
// park-sender); control messages bypass the bound.
//
// Dequeue is amortized O(1): a head index advances instead of re-slicing,
// and the backing array is compacted once the dead prefix dominates.
// Blocked bounded senders wait on notFull, which a dequeue signals only
// when the waiter count is non-zero, so the uncontended path never pays
// for a futex wake.
type lockMailbox struct {
	mu         sync.Mutex
	notFull    *sync.Cond // bounded senders wait here
	putWaiters int        // senders blocked in notFull.Wait
	queue      []Envelope
	head       int // queue[head:] are the live entries
	closed     bool
	perturb    *rand.Rand
	cap        int
	policy     MailboxPolicy // full-queue admission policy (cap > 0 only)
	parkFor    time.Duration // MailboxParkSender's bounded wait
	sample     uint64        // latency sampling rate (0 = off); see newMailbox
	seq        uint64        // accepted puts, the sampling tick; guarded by mu
}

// parkPoll is the granularity of a MailboxParkSender wait: sync.Cond has no
// timed wait in Go, so a parked sender polls for a freed slot. 50µs keeps
// the reaction to a drain prompt while bounding the busy-wait cost.
const parkPoll = 50 * time.Microsecond

func newLockMailbox(perturb *rand.Rand, capacity int, sample uint64, policy MailboxPolicy, parkFor time.Duration) *lockMailbox {
	m := &lockMailbox{perturb: perturb, cap: capacity, sample: sample, policy: policy, parkFor: parkFor}
	m.notFull = sync.NewCond(&m.mu)
	return m
}

// live returns the number of queued envelopes. Caller holds mu.
func (m *lockMailbox) live() int { return len(m.queue) - m.head }

func (m *lockMailbox) put(e Envelope, mode putMode) putResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cap > 0 && mode != putForce && m.live() >= m.cap && !m.closed {
		switch {
		case mode == putNoWait || m.policy == MailboxShed:
			return putShed
		case m.policy == MailboxParkSender:
			if !m.parkLocked() {
				return putShed
			}
		case mode == putManaged:
			return putFull
		default: // MailboxBlock
			for m.live() >= m.cap && !m.closed {
				m.putWaiters++
				m.notFull.Wait()
				m.putWaiters--
			}
		}
	}
	if m.closed {
		return putClosed
	}
	if m.sample != 0 && m.seq&(m.sample-1) == 0 {
		e.enqueuedAt = time.Now().UnixNano()
	}
	m.seq++
	m.queue = append(m.queue, e)
	return putOK
}

// parkLocked waits up to m.parkFor for the bounded queue to open a slot,
// releasing the mutex between polls. True means a slot opened (or the
// mailbox closed — the caller re-checks closed either way); false means the
// park timed out and the envelope must shed. The wait is a bounded courtesy,
// not a guarantee: under sustained overload it converts blocking into a
// short, fixed-cost delay followed by an honest shed.
func (m *lockMailbox) parkLocked() bool {
	deadline := time.Now().Add(m.parkFor)
	for m.live() >= m.cap && !m.closed {
		if !time.Now().Before(deadline) {
			return false
		}
		m.mu.Unlock()
		time.Sleep(parkPoll)
		m.mu.Lock()
	}
	return true
}

// drain on the lock mailbox dequeues a single envelope per call: bounded
// mailboxes keep one-in-one-out backpressure granularity (a bulk drain
// would release every blocked sender at once), and perturbed mailboxes
// keep the seed's per-dequeue random draw. Batched dequeue is the ring
// mailbox's job.
func (m *lockMailbox) drain(buf []Envelope, max int) []Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.popLocked(); ok {
		buf = append(buf, e)
	}
	return buf
}

// popLocked removes one envelope (random under perturbation) and wakes one
// blocked bounded sender for the freed slot. Caller holds mu.
func (m *lockMailbox) popLocked() (e Envelope, ok bool) {
	if m.live() == 0 {
		return Envelope{}, false
	}
	idx := m.head
	if m.perturb != nil && m.live() > 1 {
		idx = m.head + m.perturb.Intn(m.live())
	}
	e = m.queue[idx]
	if idx != m.head {
		m.queue[idx] = m.queue[m.head]
	}
	m.queue[m.head] = Envelope{} // release references for the GC
	m.head++
	// Compact once the dead prefix dominates a non-trivial backlog.
	if m.head > 64 && m.head*2 >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = Envelope{}
		}
		m.queue = m.queue[:n]
		m.head = 0
	}
	if m.putWaiters > 0 {
		m.notFull.Signal() // exactly one slot opened: wake one sender
	}
	return e, true
}

func (m *lockMailbox) close(discard bool) []Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	var drained []Envelope
	if discard {
		drained = append(drained, m.queue[m.head:]...)
		m.queue = nil
		m.head = 0
	}
	m.notFull.Broadcast()
	return drained
}

func (m *lockMailbox) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live()
}
