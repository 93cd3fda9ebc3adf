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
	"runtime"
	"sync"
	"sync/atomic"
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

	// traceSeq pairs this envelope's send and receive events when the
	// system runs with a trace.Recorder: both record traceID(recipient,
	// traceSeq). Zero when recording is off.
	traceSeq int64

	// release, when non-nil, runs exactly once when the envelope leaves the
	// runtime's custody: when a worker dequeues it for processing, when it
	// deadletters, or when a reply slot or proxy takes it. A conduit sets
	// it to count its own undelivered messages (see Ref.TellSpanNoWait).
	release func()

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

// 64 slots ≈ 4.3KB per chunk (Envelope is 64 bytes): big enough that the
// per-chunk allocation + link amortizes to noise, small enough that a
// short-lived or lightly-loaded actor doesn't carry a 10KB+ first chunk.
const (
	chunkShift = 6
	chunkSize  = 1 << chunkShift // envelopes per chunk
	chunkMask  = chunkSize - 1
)

// ringClosed is the closed bit in mailbox.state; the low 63 bits count
// reserved slots (the tail sequence number).
const ringClosed = uint64(1) << 63

// chunk is one fixed-size segment of the queue. start is the sequence
// number of slots[0]; slot i holds sequence number start+i. A chunk is
// written once (slots are never reused) and garbage-collected wholesale
// once the consumer moves past it.
type chunk struct {
	start uint64
	next  atomic.Pointer[chunk]
	ready [chunkSize]atomic.Bool
	slots [chunkSize]Envelope
}

// mailbox is an actor's queue: a chunked multi-producer / single-consumer
// ring. Senders reserve a sequence number on one reservation counter,
// write their envelope into the slot that number maps to, and publish it
// with an atomic flag — no mutex, no condition variable, no allocation
// except one chunk per chunk's worth of messages. The consumer — the worker
// holding the actor's schedule flag — drains published slots in
// sequence-number order with plain loads, up to N envelopes per head update
// (drain). It never waits: a send schedules the actor after publishing, so
// an empty mailbox simply ends the worker's slice.
//
// Unbounded, a reservation is one fetch-add. Bounded (Config.MailboxCap), it
// is a CAS on the same counter that succeeds only while tail − head < cap;
// a full queue applies the MailboxPolicy, and a blocked sender parks until
// drain frees a slot (see admit and wait). Control messages (putForce)
// always take the fetch-add, so shutdown and supervision bypass the bound.
//
// Ordering: the reservation counter totally orders all sends, and a single
// sender's sends are program-ordered, so per-sender FIFO holds — in fact
// the queue is globally FIFO, strictly stronger than the actor contract.
// Config.PerturbSeed reorders on the consumer side, after drain.
//
// Concurrency contract: put and size may be called from any goroutine;
// drain and close only by the worker holding the cell's schedule flag.
type mailbox struct {
	// state holds the tail sequence number plus the ringClosed bit; a
	// sender's reservation atomically claims a slot, and the closed bit in
	// the observed value voids reservations made after close (see put).
	// The padding keeps the producer-hammered line away from the
	// consumer's fields below.
	state atomic.Uint64
	_     [56]byte
	// prodHint is a best-effort pointer near the tail so senders reach
	// their chunk in O(1) instead of walking the backlog; it is validated
	// against the reserved sequence number before use.
	prodHint atomic.Pointer[chunk]
	_        [56]byte
	// head is the next sequence number the consumer will take. Written only
	// by the consumer; read by size() and bounded admission.
	head atomic.Uint64
	// headChunk is the chunk containing head. Advanced only by the
	// consumer; senders use it as a always-safe walk start (it can never be
	// ahead of any unconsumed sequence number).
	headChunk atomic.Pointer[chunk]
	_         [48]byte
	// closedTail is the tail count frozen at the instant close() set the
	// closed bit — the drain horizon. Reservations at or beyond it are the
	// voided fetch-adds of senders that were told "closed"; reservations
	// below it were accepted and will be published. Written before the
	// closed bit becomes visible, so any reader that sees the bit sees the
	// horizon.
	closedTail atomic.Uint64
	// sample is the latency sampling rate (0 = off, else a power of two);
	// immutable after construction. See newMailbox.
	sample uint64
	// bound is the admission state of a bounded mailbox, nil when
	// unbounded; immutable after construction.
	bound *bound
}

// bound is a bounded mailbox's admission state: the capacity checked
// against tail − head at reservation, the full-queue policy, and the
// senders parked waiting for a slot.
type bound struct {
	cap     uint64
	policy  MailboxPolicy
	parkFor time.Duration // MailboxParkSender's bounded wait
	// waiters counts senders parked in wait. drain reads it after freeing
	// slots and wakes only when it is non-zero, so the uncontended path
	// never touches mu.
	waiters atomic.Int32
	mu      sync.Mutex
	wake    chan struct{} // closed, then replaced, to wake every parked sender; guarded by mu
}

// newMailbox builds one actor's mailbox. capacity > 0 bounds it, with
// policy applied to a full queue and parkFor bounding a MailboxParkSender
// wait. No chunk is allocated: the first sender CAS-installs it (see
// chunkFor), so an idle actor's mailbox costs ~a cache line, not a full
// chunk — spawn stays cheap for large mostly-idle populations.
//
// sample, when non-zero (a power of two), makes the mailbox stamp
// Envelope.enqueuedAt on one in sample accepted puts, using the reservation
// counter it already maintains as the tick — so latency sampling adds no
// shared state to the send path.
func newMailbox(capacity int, policy MailboxPolicy, parkFor time.Duration, sample uint64) *mailbox {
	m := &mailbox{sample: sample}
	if capacity > 0 {
		m.bound = &bound{cap: uint64(capacity), policy: policy, parkFor: parkFor, wake: make(chan struct{})}
	}
	return m
}

// tail returns the sequence number bounding published-or-pending slots:
// the live counter while open, the frozen drain horizon once closed.
func (m *mailbox) tail() uint64 {
	s := m.state.Load()
	if s&ringClosed != 0 {
		return m.closedTail.Load()
	}
	return s
}

// put enqueues an envelope; mode says whether a full bounded mailbox may
// block the caller (putWait + MailboxBlock), must shed (putNoWait, or a
// shedding policy), reports putFull (putManaged + MailboxBlock), or is
// bypassed entirely (putForce).
func (m *mailbox) put(e Envelope, mode putMode) putResult {
	var seq uint64
	if m.bound == nil || mode == putForce {
		// One fetch-add is the whole reservation: no retry loop to collapse
		// under contention. If the closed bit is set in the result the
		// reservation is void — close() captured the tail before setting the
		// bit, so a voided sequence number is beyond the drain horizon and is
		// simply abandoned (the counter never wraps: 63 bits).
		s := m.state.Add(1)
		if s&ringClosed != 0 {
			return putClosed
		}
		seq = s - 1
	} else {
		var res putResult
		if seq, res = m.admit(mode); res != putOK {
			return res
		}
	}
	if m.sample != 0 && seq&(m.sample-1) == 0 {
		// Latency sampling rides the reservation counter the mailbox already
		// pays for: one in sample sequence numbers carries a send timestamp,
		// so enabling instrumentation adds no shared-state traffic here.
		e.enqueuedAt = time.Now().UnixNano()
	}
	c := m.chunkFor(seq)
	i := seq & chunkMask
	c.slots[i] = e
	c.ready[i].Store(true)
	return putOK
}

// admit reserves a slot in a bounded mailbox and returns its sequence
// number: a CAS on the reservation counter that succeeds only while
// tail − head < cap. A full queue applies the admission policy: shed at
// once, report putFull to a managed sender, or park in wait — without limit
// under MailboxBlock, for at most parkFor under MailboxParkSender.
func (m *mailbox) admit(mode putMode) (uint64, putResult) {
	b := m.bound
	var timer *time.Timer
	for {
		// head before state: a stale head only overstates occupancy, so the
		// cap holds; the reverse order could see head past the loaded tail.
		h := m.head.Load()
		s := m.state.Load()
		switch {
		case s&ringClosed != 0:
			return 0, putClosed
		case s-h < b.cap:
			if m.state.CompareAndSwap(s, s+1) {
				return s, putOK
			}
		case mode == putNoWait || b.policy == MailboxShed:
			return 0, putShed
		case b.policy == MailboxParkSender:
			if timer == nil {
				timer = time.NewTimer(b.parkFor)
				defer timer.Stop()
			}
			if !m.wait(timer.C) {
				return 0, putShed
			}
		case mode == putManaged:
			return 0, putFull
		default: // MailboxBlock
			m.wait(nil)
		}
	}
}

// wait parks a sender of a full bounded mailbox until a drain or close may
// have opened a slot; false means expired fired first. The sender registers
// before it re-checks the queue, and drain moves head before it reads the
// waiter count, so either the re-check sees the freed slot or drain sees
// the waiter and wakes it: no wakeup is lost.
func (m *mailbox) wait(expired <-chan time.Time) bool {
	b := m.bound
	b.mu.Lock()
	b.waiters.Add(1)
	h := m.head.Load()
	s := m.state.Load()
	if s&ringClosed != 0 || s-h < b.cap {
		b.waiters.Add(-1)
		b.mu.Unlock()
		return true
	}
	wake := b.wake
	b.mu.Unlock()
	defer b.waiters.Add(-1)
	select {
	case <-wake:
		return true
	case <-expired:
		return false
	}
}

// wakeAll releases every parked sender to retry its reservation.
func (b *bound) wakeAll() {
	b.mu.Lock()
	close(b.wake)
	b.wake = make(chan struct{})
	b.mu.Unlock()
}

// chunkFor returns the chunk containing sequence number seq, allocating
// and linking successors as needed. Starting points: prodHint when it is
// not past seq, else headChunk (always ≤ any unconsumed seq, because the
// consumer cannot pass an unpublished slot).
func (m *mailbox) chunkFor(seq uint64) *chunk {
	c := m.prodHint.Load()
	if c == nil || c.start > seq {
		c = m.headChunk.Load()
		if c == nil {
			// First send ever: race to install chunk 0. headChunk is nil
			// only before this point and never again, so the CAS loser just
			// reloads the winner's chunk.
			nc := &chunk{}
			if !m.headChunk.CompareAndSwap(nil, nc) {
				nc = m.headChunk.Load()
			}
			c = nc
		}
	}
	walked := false
	for c.start+chunkSize <= seq {
		next := c.next.Load()
		if next == nil {
			nc := &chunk{start: c.start + chunkSize}
			if c.next.CompareAndSwap(nil, nc) {
				next = nc
			} else {
				next = c.next.Load()
			}
		}
		c = next
		walked = true
	}
	if walked {
		// Best-effort: a racing store of an older chunk is harmless, the
		// hint is validated on load.
		m.prodHint.Store(c)
	}
	return c
}

// drain appends up to max published envelopes to buf with one head update
// for the whole batch, and appends none when the mailbox is empty (or
// closed and drained). A bounded mailbox then wakes its parked senders, if
// any, for the slots the batch freed.
func (m *mailbox) drain(buf []Envelope, max int) []Envelope {
	h := m.head.Load()
	avail := m.tail() - h
	if avail == 0 {
		return buf
	}
	if avail > uint64(max) {
		avail = uint64(max)
	}
	c := m.headChunk.Load()
	if c == nil {
		return buf // reserving sender has not installed chunk 0 yet
	}
	start := h
	for h-start < avail {
		if h >= c.start+chunkSize {
			next := c.next.Load()
			if next == nil {
				break // successor mid-allocation; the sender reschedules us
			}
			m.headChunk.Store(next)
			c = next
		}
		i := h & chunkMask
		if !c.ready[i].Load() {
			break // unpublished: stop, sequence order is the FIFO guarantee
		}
		buf = append(buf, c.slots[i])
		c.slots[i] = Envelope{} // release references for the GC
		h++
	}
	if h != start {
		m.head.Store(h)
		if b := m.bound; b != nil && b.waiters.Load() != 0 {
			b.wakeAll()
		}
	}
	return buf
}

// close marks the mailbox closed, releases every parked sender (which then
// reports putClosed), and returns what was still queued, for deadletter
// accounting.
func (m *mailbox) close() []Envelope {
	for {
		s := m.state.Load()
		if s&ringClosed != 0 {
			break
		}
		// Publish the horizon before the bit: a reader that sees the bit
		// (via the state acquire-load) must see this horizon.
		m.closedTail.Store(s)
		if m.state.CompareAndSwap(s, s|ringClosed) {
			break
		}
	}
	if m.bound != nil {
		m.bound.wakeAll()
	}
	// Drain every accepted reservation (those below the horizon). Their
	// senders will publish momentarily — there is no blocking between
	// reserve and publish — so spin across the gap.
	tail := m.closedTail.Load()
	var drained []Envelope
	for h := m.head.Load(); h < tail; h = m.head.Load() {
		n := len(drained)
		if drained = m.drain(drained, int(tail-h)); len(drained) == n {
			runtime.Gosched()
		}
	}
	return drained
}

// size returns the number of queued envelopes. Reserved-but-unpublished
// slots count as queued: their senders' put calls have logically happened.
// head is read first, so the difference can never go negative.
func (m *mailbox) size() int {
	h := m.head.Load()
	return int(m.tail() - h)
}
