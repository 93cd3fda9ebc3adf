//go:build go1.23

// Package coro implements the coroutine model the course teaches with
// Python, following the taxonomy of de Moura & Ierusalimschy ("Revisiting
// Coroutines", the paper's reference [5]): coroutines here are
//
//   - first-class: Coroutine values can be stored, passed, and resumed
//     from anywhere;
//   - stackful: a coroutine may suspend from within nested calls, because
//     each coroutine runs on its own stack (an iter.Pull goroutine that the
//     runtime switches to and from directly, not through the run queue);
//   - both asymmetric (Resume/Yield, like Lua and Python generators) and
//     symmetric (Transfer, via the trampoline in symmetric.go).
//
// Per the paper's quoted definition [4]: local data persists between
// successive calls, and execution resumes exactly where it left off.
//
// The package needs Go 1.23 for iter.Pull; the build constraint above
// raises this file's language version while go.mod stays at 1.22.
package coro

import (
	"errors"
	"fmt"
	"iter"
	"sync/atomic"
)

// Status is a coroutine's lifecycle state, mirroring Lua's
// coroutine.status values.
type Status int

const (
	// StatusSuspended: created but not started, or has yielded.
	StatusSuspended Status = iota
	// StatusRunning: currently executing.
	StatusRunning
	// StatusNormal: resumed another coroutine and is waiting for it.
	StatusNormal
	// StatusDead: body returned or panicked.
	StatusDead
)

func (s Status) String() string {
	switch s {
	case StatusSuspended:
		return "suspended"
	case StatusRunning:
		return "running"
	case StatusNormal:
		return "normal"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by Resume.
var (
	ErrDead    = errors.New("coro: cannot resume dead coroutine")
	ErrRunning = errors.New("coro: cannot resume non-suspended coroutine")
)

// PanicError wraps a panic raised inside a coroutine body; Resume returns it
// and the coroutine becomes dead.
type PanicError struct{ Value any }

func (e PanicError) Error() string { return fmt.Sprintf("coro: coroutine panicked: %v", e.Value) }

// Body is a coroutine's code. in is the value passed to the first Resume;
// the return value becomes the final Resume's result. Call y.Yield to
// suspend.
type Body func(y *Yielder, in any) any

// Coroutine is a first-class stackful coroutine. Create with New, drive
// with Resume. A Coroutine must only be resumed by one goroutine at a time
// (enforced: concurrent Resume returns ErrRunning rather than corrupting
// the switch).
type Coroutine struct {
	body   Body
	status atomic.Int32 // a Status; Resume claims the coroutine by CAS

	// The iter.Pull pair the body runs under, made by the first Resume.
	next func() (any, bool)
	stop func()
	// Only the side that holds control touches these; iter.Pull's switch
	// orders the accesses.
	yield func(any) bool
	inbox any   // the value of the pending Resume
	ret   any   // the body's return value, once it has finished
	err   error // the body's PanicError, once it has panicked
}

// New creates a suspended coroutine that will run body when first resumed.
func New(body Body) *Coroutine {
	if body == nil {
		panic("coro: nil body")
	}
	return &Coroutine{body: body}
}

// Status returns the coroutine's current lifecycle state.
func (c *Coroutine) Status() Status { return Status(c.status.Load()) }

// Resume transfers control to the coroutine, passing v (delivered as the
// body's `in` on first resume, or as Yield's return value subsequently).
// It returns the value the coroutine yields or returns. done is true when
// the body has returned (the coroutine is dead).
func (c *Coroutine) Resume(v any) (out any, done bool, err error) {
	if !c.status.CompareAndSwap(int32(StatusSuspended), int32(StatusRunning)) {
		if c.Status() == StatusDead {
			return nil, true, ErrDead
		}
		return nil, false, ErrRunning
	}
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.run)
	}
	c.inbox = v
	if out, ok := c.next(); ok {
		c.status.Store(int32(StatusSuspended))
		return out, false, nil
	}
	c.status.Store(int32(StatusDead))
	return c.ret, true, c.err
}

// run is the iterator iter.Pull drives. It ends by returning, so the
// body's goroutine exits before the final next returns, and it recovers
// the body's panic itself rather than letting next re-raise it.
func (c *Coroutine) run(yield func(any) bool) {
	c.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, stopped := r.(stopSignal); !stopped {
				c.err = PanicError{Value: r}
			}
		}
	}()
	in := c.inbox
	if k, ok := in.(killSignal); ok {
		panic(k.reason)
	}
	c.ret = c.body(&Yielder{c: c}, in)
}

// killSignal is a poison resume value: when a suspended coroutine receives
// it, the panic is raised *inside* the coroutine body at its current yield
// point, so deferred cleanup runs and the coroutine dies cleanly.
type killSignal struct{ reason any }

// stopSignal unwinds a body whose coroutine was closed (see close): Yield
// panics with it, and run recovers it as a normal end.
type stopSignal struct{}

// Kill resumes the coroutine with a poison value that panics inside the
// body with the given reason, so the body's deferred calls run and its
// stack is released. The resulting PanicError (wrapping reason) is
// returned; the coroutine is dead afterwards. Killing an unstarted
// coroutine starts and immediately fails it.
func (c *Coroutine) Kill(reason any) error {
	_, _, err := c.Resume(killSignal{reason: reason})
	return err
}

// close makes a suspended coroutine dead without an error: a started body
// unwinds from its yield point (its deferred calls run) and its stack is
// released. It does nothing to a running or dead coroutine.
func (c *Coroutine) close() {
	if c.status.CompareAndSwap(int32(StatusSuspended), int32(StatusDead)) && c.stop != nil {
		c.stop()
	}
}

// Yielder is the in-coroutine capability to suspend. It is only valid
// inside the owning coroutine's body.
type Yielder struct{ c *Coroutine }

// Yield suspends the coroutine, delivering v to the pending Resume, and
// blocks until resumed again; it returns the value passed to that Resume.
func (y *Yielder) Yield(v any) any {
	if !y.c.yield(v) {
		panic(stopSignal{})
	}
	in := y.c.inbox
	if k, ok := in.(killSignal); ok {
		panic(k.reason)
	}
	return in
}

// Drain runs the coroutine to completion from its current state, collecting
// every yielded value and the final return value. resumeWith is passed to
// every Resume.
func (c *Coroutine) Drain(resumeWith any) (yields []any, ret any, err error) {
	for {
		v, done, rerr := c.Resume(resumeWith)
		if rerr != nil {
			return yields, nil, rerr
		}
		if done {
			return yields, v, nil
		}
		yields = append(yields, v)
	}
}
