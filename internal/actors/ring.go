package actors

import (
	"runtime"
	"sync/atomic"
	"time"
)

// ringMailbox is the throughput fast path: a chunked multi-producer /
// single-consumer queue. Senders reserve a global sequence number with one
// fetch-add (their only point of contention), write their envelope into the
// slot that number maps to, and publish it with an atomic flag — no mutex,
// no condition variable, no allocation except one chunk per chunk's worth
// of messages. The consumer — the worker holding the actor's schedule flag —
// drains published slots in sequence-number order with plain loads, up to
// N envelopes per head update (drain). It never waits: a send schedules the
// actor after publishing, so an empty ring simply ends the worker's slice.
//
// Ordering: the reservation counter totally orders all sends, and a single
// sender's sends are program-ordered, so per-sender FIFO holds — in fact
// the ring is globally FIFO, strictly stronger than the actor contract.
//
// The ring is only used for unbounded, unperturbed mailboxes, so put never
// blocks (see newMailbox for the fallback rules).
//
// 64 slots ≈ 4.3KB per chunk (Envelope is 64 bytes): big enough that the
// per-chunk allocation + link amortizes to noise, small enough that a
// short-lived or lightly-loaded actor doesn't carry a 10KB+ first chunk.
const (
	chunkShift = 6
	chunkSize  = 1 << chunkShift // envelopes per chunk
	chunkMask  = chunkSize - 1
)

// ringClosed is the closed bit in ringMailbox.state; the low 63 bits count
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

type ringMailbox struct {
	// state holds the tail sequence number plus the ringClosed bit; a
	// sender's fetch-add atomically reserves a slot, and the closed bit in
	// the returned value voids reservations made after close (see put).
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
	// by the consumer; read by size().
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
}

// tail returns the sequence number bounding published-or-pending slots:
// the live counter while open, the frozen drain horizon once closed.
func (m *ringMailbox) tail() uint64 {
	s := m.state.Load()
	if s&ringClosed != 0 {
		return m.closedTail.Load()
	}
	return s
}

// newRingMailbox allocates no chunk: the first sender CAS-installs it (see
// chunkFor), so an idle actor's mailbox costs ~a cache line, not a full
// chunk — spawn stays cheap for large mostly-idle populations. sample is
// the latency sampling rate from newMailbox (0 = off, else a power of two).
func newRingMailbox(sample uint64) *ringMailbox {
	return &ringMailbox{sample: sample}
}

func (m *ringMailbox) put(e Envelope, mode putMode) putResult {
	_ = mode // the ring is unbounded: no bound to bypass, nothing to shed
	// One fetch-add is the whole reservation: no retry loop to collapse
	// under contention. If the closed bit is set in the result the
	// reservation is void — close() captured the tail before setting the
	// bit, so a voided sequence number is beyond the drain horizon and is
	// simply abandoned (the counter never wraps: 63 bits).
	s := m.state.Add(1)
	if s&ringClosed != 0 {
		return putClosed
	}
	seq := s - 1
	if m.sample != 0 && seq&(m.sample-1) == 0 {
		// Latency sampling rides the reservation counter the ring already
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

// chunkFor returns the chunk containing sequence number seq, allocating
// and linking successors as needed. Starting points: prodHint when it is
// not past seq, else headChunk (always ≤ any unconsumed seq, because the
// consumer cannot pass an unpublished slot).
func (m *ringMailbox) chunkFor(seq uint64) *chunk {
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
// for the whole batch — the "N envelopes per atomic handoff" half of the
// fast path (the other half being senders' single-CAS reservation).
func (m *ringMailbox) drain(buf []Envelope, max int) []Envelope {
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
	}
	return buf
}

func (m *ringMailbox) close(discard bool) []Envelope {
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
	if !discard {
		return nil
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

func (m *ringMailbox) size() int {
	// Reserved-but-unpublished slots count as queued: their senders'
	// put calls have logically happened.
	return int(m.tail() - m.head.Load())
}
