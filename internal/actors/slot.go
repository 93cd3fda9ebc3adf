package actors

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// slotTable holds the reply slots of asks that are still waiting, keyed by
// ID. Membership is the slot's state: openSlot inserts it, and whichever
// comes first — the reply (fillSlot) or the asker giving up — takes it out.
// So a slot accepts exactly one message, and System.ByID finds it only while
// its ask waits. It has its own lock, so opening and closing a slot never
// takes System.mu.
type slotTable struct {
	mu sync.Mutex
	m  map[uint64]*Ref
}

func (t *slotTable) put(r *Ref) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[uint64]*Ref)
	}
	t.m[r.id] = r
	t.mu.Unlock()
}

func (t *slotTable) get(id uint64) *Ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// take removes the slot with the given ID and reports whether it was still
// open: true means the caller closed it.
func (t *slotTable) take(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.m[id]
	delete(t.m, id)
	return ok
}

// replySlot is where one ask's reply lands. Its ref has a system-unique ID
// but is not an actor: no goroutine, no mailbox, no entry in the actor
// table.
type replySlot struct {
	ref  Ref
	msg  any           // the accepted message, written before done closes
	done chan struct{} // closed once msg is in
}

// openSlot creates an open reply slot, named ask-reply.
func (s *System) openSlot() *replySlot {
	sl := &replySlot{ref: Ref{id: s.nextID.Add(1), name: "ask-reply", sys: s}, done: make(chan struct{})}
	sl.ref.slot = sl
	s.slots.put(&sl.ref)
	return sl
}

// close takes the slot out of its table and reports whether it was still
// open: false means a message claimed it first.
func (sl *replySlot) close() bool { return sl.ref.sys.slots.take(sl.ref.id) }

// await waits for the slot's message until ctx is done or timeout passes,
// then closes the slot. A message that claimed the slot before the wait
// ended still wins: it is already on its way in.
func (sl *replySlot) await(ctx context.Context, timeout time.Duration) (any, error) {
	timer := getTimer(timeout)
	defer putTimer(timer)
	var err error
	select {
	case <-sl.done:
		return sl.msg, nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-timer.C:
		err = ErrAskTimeout
	}
	if !sl.close() {
		<-sl.done
		return sl.msg, nil
	}
	return nil, err
}

// askTimers recycles the timers of await. Only a timer stopped before it
// fired goes back, so a recycled timer's channel is always empty.
var askTimers sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := askTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if t.Stop() {
		askTimers.Put(t)
	}
}

// fillSlot delivers e into the reply slot to. The first message closes the
// slot and lands in it, after its receive is recorded and its span
// sealed (the mailbox stage ends at arrival, and there is no handler), so
// both are complete by the time the asker sees the reply. A message to a
// closed slot deadletters as if sent to a stopped actor.
func (s *System) fillSlot(to *Ref, e Envelope, ctrl bool) deliverStatus {
	if ctrl || !to.slot.close() {
		s.deadletterKind(to, e, DLDead)
		return statusDead
	}
	if e.release != nil {
		e.release()
	}
	if e.traceSeq != 0 {
		s.cfg.Recorder.RecordReceive(to.String(), traceID(to, e.traceSeq), fmt.Sprintf("%T", e.Msg))
	}
	if sp := e.Span; sp != nil {
		now := trace.SpanNow()
		sp.Mark(trace.StageMailbox, now)
		sp.Finish(now)
	}
	to.slot.msg = e.Msg
	close(to.slot.done)
	return statusDelivered
}
