package actors

import (
	"sync"
	"time"
)

// Every actor runs on its system's worker pool (Config.PoolSize
// goroutines). An actor consumes no goroutine until a message arrives; the
// send then schedules it onto a worker, which drains the mailbox in batches
// for a slice of up to Config.Throughput messages and moves on. Very large
// mostly-idle populations (100k+) therefore cost only their mailboxes.
//
// Blocking contract: a behavior that blocks occupies its worker for as long
// as it blocks, so behaviors should communicate by messages rather than
// blocking primitives. The runtime's own waits never pin a worker
// indefinitely: a supervised restart backoff leaves the worker and resumes
// from a timer (superviseFailure), and a Context.Send that must wait on a
// full MailboxBlock mailbox hands its worker slot to a spare worker for the
// wait (sendMode). Arbitrary user blocking (channel waits, Ask inside a
// behavior) is not managed; see docs/PERF.md.

// Cell scheduling states (cell.sched).
const (
	cellIdle      int32 = iota // not on the run queue, no worker owns it
	cellScheduled              // queued, processed by a worker, or parked in a backoff
)

// step is processOne's verdict on the cell after one message.
type step int8

const (
	stepNext step = iota // keep processing
	stepExit             // the actor terminated: tear it down
	stepPark             // restart backoff: leave the worker, keep the schedule flag
)

// runQueue is the pool's scheduler: a FIFO of runnable cells plus the
// workers parked for want of one. push hands a cell straight to a parked
// worker when there is one (the most recently parked, whose cache is
// warmest) and queues it otherwise; pop takes the FIFO's head or parks. The
// handoff makes the worker woken for a cell the one that runs it: with a
// plain condition variable, a worker woken for a fresh cell could find an
// older backlog at the head and run that first, while the worker woken for
// the backlog had not yet been scheduled. Amortized O(1): a head index
// advances and the backing array compacts when the dead prefix dominates.
type runQueue struct {
	mu     sync.Mutex
	q      []*cell
	head   int
	idle   []chan *cell // parked workers' handoff slots (capacity 1)
	retire int          // spare workers owed retirement (see System.startSpare)
	closed bool
}

func (rq *runQueue) push(c *cell) {
	rq.mu.Lock()
	if n := len(rq.idle); n > 0 {
		w := rq.idle[n-1]
		rq.idle = rq.idle[:n-1]
		rq.mu.Unlock()
		w <- c
		return
	}
	rq.q = append(rq.q, c)
	rq.mu.Unlock()
}

// requeue puts c at the back of the queue without waking a parked worker:
// the calling worker pops next, and runs c itself if nothing is ahead.
func (rq *runQueue) requeue(c *cell) {
	rq.mu.Lock()
	rq.q = append(rq.q, c)
	rq.mu.Unlock()
}

// pop returns the next runnable cell for the worker whose handoff slot is
// slot, parking the worker until one arrives. ok is false once the queue is
// closed and empty, or when the worker is picked to retire.
func (rq *runQueue) pop(slot chan *cell) (c *cell, ok bool) {
	rq.mu.Lock()
	switch {
	case rq.retire > 0:
		rq.retire--
		rq.mu.Unlock()
		return nil, false
	case rq.head < len(rq.q):
		c = rq.q[rq.head]
		rq.q[rq.head] = nil
		rq.head++
		if rq.head > 64 && rq.head*2 >= len(rq.q) {
			n := copy(rq.q, rq.q[rq.head:])
			clear(rq.q[n:])
			rq.q = rq.q[:n]
			rq.head = 0
		}
		rq.mu.Unlock()
		return c, true
	case rq.closed:
		rq.mu.Unlock()
		return nil, false
	}
	rq.idle = append(rq.idle, slot)
	rq.mu.Unlock()
	c = <-slot
	return c, c != nil
}

// retireOne makes one worker exit, shrinking the pool back by one: a parked
// worker at once, else the next worker to look for work.
func (rq *runQueue) retireOne() {
	rq.mu.Lock()
	if n := len(rq.idle); n > 0 {
		w := rq.idle[n-1]
		rq.idle = rq.idle[:n-1]
		rq.mu.Unlock()
		w <- nil
		return
	}
	rq.retire++
	rq.mu.Unlock()
}

// depth returns the number of cells waiting on the run queue — the
// dispatcher's backlog gauge.
func (rq *runQueue) depth() int {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	return len(rq.q) - rq.head
}

func (rq *runQueue) close() {
	rq.mu.Lock()
	rq.closed = true
	idle := rq.idle
	rq.idle = nil
	rq.mu.Unlock()
	for _, w := range idle {
		w <- nil
	}
}

// schedule puts c on the run queue if it is not already there. The
// cellIdle→cellScheduled CAS guarantees a cell is queued at most once and
// never concurrently processed by two workers; the flag is released by the
// worker after its slice (runSlice), which re-checks the mailbox so a
// message that raced the release is never stranded. The plain load first
// keeps a flood to a busy actor from contending on the flag's cache line.
func (s *System) schedule(c *cell) {
	if c.sched.Load() == cellIdle && c.sched.CompareAndSwap(cellIdle, cellScheduled) {
		s.runq.push(c)
	}
}

// startSpare is the managed-blocking hand-off: a worker about to wait inside
// the runtime starts a spare worker so the pool keeps its width, and calls
// runq.retireOne once the wait is over. Whichever worker next looks for work
// then retires.
func (s *System) startSpare() {
	s.workerWG.Add(1)
	go s.worker()
}

// worker is one pool goroutine: it drains the run queue, giving each
// runnable cell a bounded slice of messages. Its handoff slot and batch
// buffer are reused across slices.
func (s *System) worker() {
	defer s.workerWG.Done()
	slot := make(chan *cell, 1)
	var buf []Envelope
	for {
		c, ok := s.runq.pop(slot)
		if !ok {
			return
		}
		buf = s.runSlice(c, buf)
	}
}

// runSlice processes up to Throughput messages for one cell, drained from
// its mailbox in batches (each shuffled under Config.PerturbSeed), then
// yields the worker. A cell parked by a restart backoff first finishes the
// supervision directive (c.resume) and the messages it had already
// dequeued (c.held). On actor exit the schedule flag
// is left set so the dead cell can never be re-queued; on a park it stays
// set until the backoff timer re-queues the cell; otherwise it is released
// and the mailbox re-checked to close the release/send race. A cell with
// mail left goes to the back of the queue, where this worker, now free,
// finds it unless other cells are waiting: yielding costs no wake.
func (s *System) runSlice(c *cell, buf []Envelope) []Envelope {
	batch := append(buf[:0], c.held...)
	c.held = nil
	if c.resume != nil {
		resume := c.resume
		c.resume = nil
		if !resume() {
			s.teardown(c, batch)
			return clearBatch(batch)
		}
	}
	budget := s.throughput
	for {
		if len(batch) == 0 {
			if batch = c.mbox.drain(batch, budget); len(batch) == 0 {
				break
			}
			if c.perturb != nil {
				c.perturb.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			}
		}
		budget -= len(batch)
		for i, e := range batch {
			switch s.processOne(c, e) {
			case stepExit:
				s.teardown(c, batch[i+1:])
				return clearBatch(batch)
			case stepPark:
				c.held = append([]Envelope(nil), batch[i+1:]...)
				s.park(c)
				return clearBatch(batch)
			}
		}
		batch = clearBatch(batch)
		if budget <= 0 {
			break
		}
	}
	c.sched.Store(cellIdle)
	if c.mbox.size() > 0 && c.sched.CompareAndSwap(cellIdle, cellScheduled) {
		s.runq.requeue(c)
	}
	return batch
}

// clearBatch empties a processed batch for reuse, dropping its envelope
// references so an idle worker's buffer keeps no message alive.
func clearBatch(batch []Envelope) []Envelope {
	clear(batch)
	return batch[:0]
}

// park takes c off its worker for the restart backoff superviseFailure
// recorded in c.backoff and c.resume: the schedule flag stays set, so sends
// queue without scheduling it, and a timer re-queues the cell after the
// delay, when runSlice runs resume first. The caller stores c.held before
// calling park, so the worker that picks the cell up sees every field the
// backoff carries.
func (s *System) park(c *cell) {
	time.AfterFunc(c.backoff, func() { s.runq.push(c) })
}
