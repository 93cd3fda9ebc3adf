package pseudocode

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Semantics selects the execution rules. The zero value is the paper's
// semantics (Figures 3-5). The other fields implement perturbed semantics:
// each corresponds to a misconception from Table III (used by the study
// simulation to model students) or to an ablation.
type Semantics struct {
	// SendSynchronous models [C1]M3: a message send behaves like a
	// synchronous call — the sender blocks until the receiver consumes the
	// message.
	SendSynchronous bool
	// FIFOMailboxes models the belief behind [I2]M5: messages are received
	// exactly in arrival order (a receiver blocks if the head-of-queue
	// message matches no clause).
	FIFOMailboxes bool
	// CoarseLock models [I1]S7: the exclusive access is held from function
	// invocation to return rather than from EXC_ACC to END_EXC_ACC.
	CoarseLock bool
	// WaitKeepsLock models [I1]S6-adjacent confusion: WAIT() does not
	// release the exclusive access.
	WaitKeepsLock bool
	// NotifyWakesOne is an ablation: NOTIFY wakes a single waiter (Java's
	// notify) instead of the paper's wake-all semantics.
	NotifyWakesOne bool
}

// blockKind says why a task is not runnable.
type blockKind int

const (
	blockNone       blockKind = iota
	blockAcquire              // waiting for footprint vars to be free
	blockWaitNotify           // parked in WAIT()
	blockReacquire            // woken by NOTIFY, waiting to re-acquire
	blockJoin                 // PARA join: waiting for children
	blockReceive              // no matching message available
	blockRendezvous           // synchronous-send: waiting for consumption
)

var blockNames = [...]string{"", "acquire", "wait", "reacquire", "join", "receive", "rendezvous"}

func (b blockKind) String() string { return blockNames[b] }

// frame is one activation record. It is a plain value stored in
// Task.frames; its locals and operand stack live in the task's shared
// value arena (Task.vals), starting at base:
//
//	vals[base : base+code.NumLocals]   locals (slot-indexed, nil = unbound)
//	vals[base+code.NumLocals : end]    operand stack (end = next frame's
//	                                   base, or len(vals) for the top frame)
//
// A task clone is therefore two slice copies, with no per-frame allocation.
type frame struct {
	code     *CodeObject
	ip       int
	self     RefV  // -1 when not in a method
	base     int   // offset of this frame's region in Task.vals
	heldCall []int // lock slots acquired at call entry under CoarseLock
	// heldCall aliases compiled-program data and is never written through.
}

// alloc is a free list of world/task containers. The explorer clones and
// discards worlds at a rate of millions per run; recycling the container
// allocations (not the immutable Values inside) takes that churn off the
// GC. Each worker of the explorer owns a private alloc, so get/put are
// plain slice operations with no atomics (a sync.Pool here cost ~25% of
// exploration time in pushHead/CompareAndSwap). A world carries a pointer
// to the alloc that owns it; the explorer re-tags a popped world with the
// popping worker's alloc before cloning or recycling it.
type alloc struct {
	worlds []*World
	tasks  []*Task
}

func (a *alloc) getWorld() *World {
	if a != nil && len(a.worlds) > 0 {
		w := a.worlds[len(a.worlds)-1]
		a.worlds = a.worlds[:len(a.worlds)-1]
		return w
	}
	return &World{}
}

func (a *alloc) getTask() *Task {
	if a != nil && len(a.tasks) > 0 {
		t := a.tasks[len(a.tasks)-1]
		a.tasks = a.tasks[:len(a.tasks)-1]
		return t
	}
	return &Task{}
}

// Task is one concurrent activity (the main program, a PARA child, or a
// receiver).
type Task struct {
	ID       int
	Name     string
	Parent   int // -1 for main
	frames   []frame
	vals     []Value // shared locals+stack arena for all frames
	block    blockKind
	blockFP  []int // lock slots for blockAcquire/blockReacquire
	blockSeq int   // mail seq for blockRendezvous
	children int   // live child count for join
	Done     bool
	// Steps counts atomic steps this task executed. Path metadata: it is
	// excluded from state encoding and exists for fairness measurements.
	Steps int
}

// BlockedOn describes why the task is blocked ("" if runnable or done).
func (t *Task) BlockedOn() string { return t.block.String() }

// InFunction reports whether the task currently has an activation record
// for the named function or method. Intended for explorer predicates
// ("is this car inside redEnter?").
func (t *Task) InFunction(name string) bool {
	for i := range t.frames {
		if t.frames[i].code.Name == name {
			return true
		}
	}
	return false
}

// Waiting reports whether the task is parked in WAIT() (including the
// woken-but-not-reacquired phase).
func (t *Task) Waiting() bool {
	return t.block == blockWaitNotify || t.block == blockReacquire
}

func (t *Task) clone(a *alloc) *Task {
	n := a.getTask()
	n.ID = t.ID
	n.Name = t.Name
	n.Parent = t.Parent
	n.block = t.block
	n.blockSeq = t.blockSeq
	n.children = t.children
	n.Done = t.Done
	n.Steps = t.Steps
	n.blockFP = append(n.blockFP[:0], t.blockFP...)
	n.frames = append(n.frames[:0], t.frames...)
	n.vals = append(n.vals[:0], t.vals...)
	return n
}

func (t *Task) top() *frame {
	if len(t.frames) == 0 {
		return nil
	}
	return &t.frames[len(t.frames)-1]
}

// pushFrame appends an activation record for code, reserving its local
// slots (unbound) at the end of the arena.
func (t *Task) pushFrame(code *CodeObject, self RefV) *frame {
	base := len(t.vals)
	for i := 0; i < code.NumLocals; i++ {
		t.vals = append(t.vals, nil)
	}
	t.frames = append(t.frames, frame{code: code, self: self, base: base})
	return &t.frames[len(t.frames)-1]
}

// push appends v to the top frame's operand stack.
func (t *Task) push(v Value) { t.vals = append(t.vals, v) }

// pop removes the top of the operand stack of frame f (which must be the
// top frame).
func (t *Task) pop(f *frame) Value {
	floor := f.base + f.code.NumLocals
	if len(t.vals) <= floor {
		return NullV{}
	}
	v := t.vals[len(t.vals)-1]
	t.vals = t.vals[:len(t.vals)-1]
	return v
}

// popN pops n values, preserving their push order, into a fresh slice.
func (t *Task) popN(f *frame, n int) []Value {
	if n == 0 {
		return nil
	}
	vals := make([]Value, n)
	for i := n - 1; i >= 0; i-- {
		vals[i] = t.pop(f)
	}
	return vals
}

// mailEntry is one message in a mailbox, with a sequence number for
// rendezvous identity and FIFO ordering (the seq is excluded from state
// hashing) and the message's canonical encoding interned at send time.
type mailEntry struct {
	seq int
	msg MsgV
	enc string
}

// World is the full machine state: shared globals, heap, tasks, locks,
// wait queue, and output. Worlds are cloneable so the explorer can branch.
// Globals and locks are slot-indexed slices (slots assigned at compile
// time); mailboxes are indexed alongside the heap.
type World struct {
	prog    *Compiled
	sem     Semantics
	globals []Value // slot-indexed; nil = unset
	heap    []*Object
	mail    [][]mailEntry // object id -> mailbox (parallel to heap)
	Tasks   []*Task
	locks   []lockState // slot-indexed; depth==0 = free
	waiters []int       // task IDs parked in WAIT, in arrival order
	output  []byte
	msgSeq  int
	nextTID int

	// Trace, when non-nil, observes every atomic step.
	Trace func(ev StepEvent)
	// steps counts atomic steps executed.
	steps int

	// scratch buffers (never cloned, reused across calls on this world).
	scrCands []candidate
	scrArgs  []Value
	scrEncs  []string

	// alloc is the free list this world's containers came from and return
	// to; nil outside the explorer (plain allocation, no recycling).
	alloc *alloc
}

// lockState records the holder of one guarded variable.
type lockState struct {
	holder int // task ID
	depth  int // re-entrancy count; 0 = free
}

// StepEvent describes one atomic step for tracing.
type StepEvent struct {
	TaskID   int
	TaskName string
	Op       string
	Line     int
	Detail   string
}

// RuntimeError is a dynamic execution error (type error, unknown name...).
type RuntimeError struct {
	Task string
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("pseudocode: runtime error in %s at line %d: %s", e.Task, e.Line, e.Msg)
}

// NewWorld creates the initial state for prog under sem, with the main task
// parked at the first statement.
func NewWorld(prog *Compiled, sem Semantics) *World {
	w := &World{
		prog:    prog,
		sem:     sem,
		globals: make([]Value, len(prog.GlobalNames)),
		locks:   make([]lockState, len(prog.LockVars)),
	}
	w.spawn("main", -1, prog.Main, RefV(-1))
	return w
}

// Clone deep-copies the world (Trace is not carried over). The copy comes
// from a pool; the explorer returns finished worlds via recycle().
func (w *World) Clone() *World {
	n := w.alloc.getWorld()
	n.alloc = w.alloc
	n.prog = w.prog
	n.sem = w.sem
	n.msgSeq = w.msgSeq
	n.nextTID = w.nextTID
	n.steps = w.steps
	n.Trace = nil
	n.globals = append(n.globals[:0], w.globals...)
	n.heap = n.heap[:0]
	for _, o := range w.heap {
		n.heap = append(n.heap, o.clone())
	}
	n.mail = n.mail[:0]
	for _, box := range w.mail {
		if len(box) == 0 {
			n.mail = append(n.mail, nil)
		} else {
			n.mail = append(n.mail, append([]mailEntry(nil), box...))
		}
	}
	n.Tasks = n.Tasks[:0]
	for _, t := range w.Tasks {
		n.Tasks = append(n.Tasks, t.clone(w.alloc))
	}
	n.locks = append(n.locks[:0], w.locks...)
	n.waiters = append(n.waiters[:0], w.waiters...)
	n.output = append(n.output[:0], w.output...)
	return n
}

// recycle returns the world's containers to its alloc free list. Only the
// explorer calls it, and only for worlds it owns exclusively (never ones
// observed by user predicates).
func (w *World) recycle() {
	a := w.alloc
	if a == nil {
		return
	}
	for _, t := range w.Tasks {
		t.frames = t.frames[:0]
		t.vals = t.vals[:0]
		a.tasks = append(a.tasks, t)
	}
	w.Tasks = w.Tasks[:0]
	for i := range w.heap {
		w.heap[i] = nil
	}
	w.heap = w.heap[:0]
	w.Trace = nil
	a.worlds = append(a.worlds, w)
}

// Output returns everything printed so far.
func (w *World) Output() string { return string(w.output) }

// Steps returns the number of atomic steps executed.
func (w *World) Steps() int { return w.steps }

// GetGlobal returns a global variable's value (nil if unset).
func (w *World) GetGlobal(name string) Value {
	if i, ok := w.prog.globalIdx[name]; ok {
		return w.globals[i]
	}
	return nil
}

// TaskByName returns the first non-done task with the given name, or nil.
func (w *World) TaskByName(name string) *Task {
	for _, t := range w.Tasks {
		if t.Name == name && !t.Done {
			return t
		}
	}
	return nil
}

// LockHolder returns the task ID holding var name, or -1.
func (w *World) LockHolder(name string) int {
	if i, ok := w.prog.lockIdx[name]; ok && w.locks[i].depth > 0 {
		return w.locks[i].holder
	}
	return -1
}

// ObjectsByClass returns the heap objects of the given class, in
// allocation order. Intended for explorer predicates.
func (w *World) ObjectsByClass(class string) []*Object {
	var out []*Object
	for _, o := range w.heap {
		if o.Class == class {
			out = append(out, o)
		}
	}
	return out
}

// MailboxCount returns the number of queued messages across all objects.
func (w *World) MailboxCount() int {
	n := 0
	for _, q := range w.mail {
		n += len(q)
	}
	return n
}

func (w *World) spawn(name string, parent int, code *CodeObject, self RefV) *Task {
	t := w.alloc.getTask()
	t.ID = w.nextTID
	t.Name = name
	t.Parent = parent
	t.block = blockNone
	t.blockFP = t.blockFP[:0]
	t.blockSeq = 0
	t.children = 0
	t.Done = false
	t.Steps = 0
	t.frames = t.frames[:0]
	t.vals = t.vals[:0]
	t.pushFrame(code, self)
	w.nextTID++
	w.Tasks = append(w.Tasks, t)
	return t
}

// --- Runnability ---

// Choice identifies a scheduling option: run task TaskIdx; for a receive
// with several deliverable messages, Option selects which (0-based index
// into the canonically ordered candidate list).
type Choice struct {
	TaskIdx int
	Option  int
}

// Runnable returns all scheduling choices available in the current state.
func (w *World) Runnable() []Choice { return w.runnableInto(nil) }

// runnableInto appends the available choices to buf (reused by the
// explorer's hot loop).
func (w *World) runnableInto(buf []Choice) []Choice {
	out := buf[:0]
	for i, t := range w.Tasks {
		n := w.taskOptions(t)
		for o := 0; o < n; o++ {
			out = append(out, Choice{TaskIdx: i, Option: o})
		}
	}
	return out
}

// taskOptions returns how many scheduling options the task has now
// (0 = not runnable).
func (w *World) taskOptions(t *Task) int {
	if t.Done {
		return 0
	}
	f := t.top()
	if f == nil {
		return 0
	}
	in := f.code.Instrs[f.ip]
	// A task parked at OpStep: look at the next instruction, since blocking
	// ops are compiled immediately after their OpStep.
	probe := in
	if in.Op == OpStep && f.ip+1 < len(f.code.Instrs) {
		probe = f.code.Instrs[f.ip+1]
	}
	switch t.block {
	case blockJoin:
		if t.children == 0 {
			return 1
		}
		return 0
	case blockWaitNotify:
		return 0 // only NOTIFY can move it
	case blockReacquire:
		if w.canAcquire(t.ID, t.blockFP) {
			return 1
		}
		return 0
	case blockRendezvous:
		return 0 // consumption of the message unblocks it
	case blockAcquire:
		if w.canAcquire(t.ID, t.blockFP) {
			return 1
		}
		return 0
	case blockReceive:
		// fall through to re-probe the receive below
	}
	switch probe.Op {
	case OpAcquire:
		if w.canAcquire(t.ID, w.prog.FootprintIdx[probe.A]) {
			return 1
		}
		return 0
	case OpParaJoin:
		// Not yet spawned (blockNone) — OpPara precedes and is non-blocking;
		// if parked exactly at OpParaJoin without blockJoin, children==0.
		if t.children == 0 {
			return 1
		}
		return 0
	case OpReceive:
		cands := w.receiveCandidates(t, w.prog.RecvTables[probe.A])
		return len(cands)
	case OpCall:
		if w.sem.CoarseLock {
			if fn := w.prog.Funcs[probe.S]; fn != nil && len(fn.ExcIdx) > 0 {
				if !w.canAcquire(t.ID, fn.ExcIdx) {
					return 0
				}
			}
		}
		return 1
	default:
		return 1
	}
}

func (w *World) canAcquire(tid int, slots []int) bool {
	for _, s := range slots {
		if ls := &w.locks[s]; ls.depth > 0 && ls.holder != tid {
			return false
		}
	}
	return true
}

func (w *World) acquire(tid int, slots []int) {
	for _, s := range slots {
		ls := &w.locks[s]
		if ls.depth == 0 {
			ls.holder = tid
		}
		ls.depth++
	}
}

func (w *World) release(tid int, slots []int) {
	for _, s := range slots {
		ls := &w.locks[s]
		if ls.depth == 0 || ls.holder != tid {
			continue
		}
		ls.depth--
	}
}

// lockNames renders lock slots for traces.
func (w *World) lockNames(slots []int) string {
	names := make([]string, len(slots))
	for i, s := range slots {
		names[i] = w.prog.LockVars[s]
	}
	return strings.Join(names, ",")
}

// receiveCandidates lists the mailbox entries task t could consume, in
// canonical order (so Option indices are stable across equivalent states).
type candidate struct {
	entryIdx  int
	clauseIdx int
	enc       string
}

func (w *World) receiveCandidates(t *Task, table RecvTable) []candidate {
	f := t.top()
	box := w.mail[int(f.self)]
	cands := w.scrCands[:0]
	consider := func(i int) {
		e := &box[i]
		for ci := range table.Clauses {
			cl := &table.Clauses[ci]
			if cl.MsgName == e.msg.Name && len(cl.Params) == len(e.msg.Args) {
				cands = append(cands, candidate{entryIdx: i, clauseIdx: ci, enc: e.enc})
				return
			}
		}
	}
	if w.sem.FIFOMailboxes {
		if len(box) > 0 {
			consider(0) // strict order: only the head is deliverable
		}
		w.scrCands = cands
		return cands
	}
	for i := range box {
		consider(i)
	}
	// Canonical order and dedup by message content: receiving either of two
	// identical messages leads to the same state. Candidate lists are tiny;
	// insertion sort avoids sort.Slice overhead in the hot path.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].enc < cands[j-1].enc; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	uniq := cands[:0]
	var last string
	for i := range cands {
		if i == 0 || cands[i].enc != last {
			last = cands[i].enc
			uniq = append(uniq, cands[i])
		}
	}
	w.scrCands = cands[:0]
	return uniq
}

// --- Stepping ---

// Step executes one atomic step for the given choice. The choice must come
// from Runnable() on the current state.
func (w *World) Step(ch Choice) error {
	t := w.Tasks[ch.TaskIdx]
	w.steps++
	t.Steps++
	// A task parked at a blocking op (block != none) is mid-statement: the
	// next OpStep it reaches ends this step. A task parked at an OpStep has
	// not consumed its boundary yet.
	consumed := t.block != blockNone
	for {
		f := t.top()
		if f == nil {
			w.taskExit(t)
			return nil
		}
		if f.ip >= len(f.code.Instrs) {
			return &RuntimeError{t.Name, 0, "instruction pointer out of range"}
		}
		in := f.code.Instrs[f.ip]
		switch in.Op {
		case OpStep:
			if consumed {
				return nil // parked at the next statement
			}
			consumed = true
			f.ip++
		case OpPush:
			t.push(w.prog.Consts[in.A])
			f.ip++
		case OpLoad:
			var v Value
			if in.L >= 0 {
				v = t.vals[f.base+in.L]
			}
			if v == nil && int(f.self) >= 0 {
				v = w.heap[f.self].Field(in.S)
			}
			if v == nil && in.G >= 0 {
				v = w.globals[in.G]
			}
			if v == nil {
				return &RuntimeError{t.Name, in.Line, "undefined variable " + in.S}
			}
			t.push(v)
			f.ip++
		case OpStore:
			v := t.pop(f)
			w.store(t, f, in, v)
			if w.Trace != nil {
				w.trace(t, "assign", in.Line, in.S+" = "+v.display())
			}
			f.ip++
		case OpLoadSelf:
			t.push(f.self)
			f.ip++
		case OpGetField:
			obj, err := w.popObject(t, f, in.Line)
			if err != nil {
				return err
			}
			v := obj.Field(in.S)
			if v == nil {
				return &RuntimeError{t.Name, in.Line, "object has no field " + in.S}
			}
			t.push(v)
			f.ip++
		case OpSetField:
			v := t.pop(f)
			obj, err := w.popObject(t, f, in.Line)
			if err != nil {
				return err
			}
			obj.SetField(in.S, v)
			if w.Trace != nil {
				w.trace(t, "setfield", in.Line, in.S+" = "+v.display())
			}
			f.ip++
		case OpBinary:
			rhs := t.pop(f)
			lhs := t.pop(f)
			v, err := binaryOp(in.S, lhs, rhs)
			if err != nil {
				return &RuntimeError{t.Name, in.Line, err.Error()}
			}
			t.push(v)
			f.ip++
		case OpUnary:
			v := t.pop(f)
			r, err := unaryOp(in.S, v)
			if err != nil {
				return &RuntimeError{t.Name, in.Line, err.Error()}
			}
			t.push(r)
			f.ip++
		case OpJump:
			f.ip = in.A
		case OpJumpIfFalse:
			v := t.pop(f)
			b, err := truthy(v)
			if err != nil {
				return &RuntimeError{t.Name, in.Line, err.Error()}
			}
			if b {
				f.ip++
			} else {
				f.ip = in.A
			}
		case OpPrint:
			v := t.pop(f)
			w.output = append(w.output, v.display()...)
			if in.A == 1 {
				w.output = append(w.output, '\n')
			}
			if w.Trace != nil {
				w.trace(t, "print", in.Line, v.display())
			}
			f.ip++
		case OpCall:
			fn := w.prog.Funcs[in.S]
			if fn == nil {
				return &RuntimeError{t.Name, in.Line, "undefined function " + in.S}
			}
			if w.sem.CoarseLock && len(fn.ExcIdx) > 0 {
				if !w.canAcquire(t.ID, fn.ExcIdx) {
					t.block = blockAcquire
					t.blockFP = append(t.blockFP[:0], fn.ExcIdx...)
					return nil
				}
				w.acquire(t.ID, fn.ExcIdx)
			}
			t.block = blockNone
			args := w.popNScratch(t, f, in.A)
			if len(args) != len(fn.Params) {
				return &RuntimeError{t.Name, in.Line, fmt.Sprintf("%s expects %d args, got %d", in.S, len(fn.Params), len(args))}
			}
			f.ip++
			nf := t.pushFrame(fn, RefV(-1))
			copy(t.vals[nf.base:nf.base+len(args)], args)
			if w.sem.CoarseLock && len(fn.ExcIdx) > 0 {
				nf.heldCall = fn.ExcIdx
			}
			if w.Trace != nil {
				w.trace(t, "call", in.Line, in.S)
			}
		case OpCallMethod:
			args := w.popNScratch(t, f, in.A)
			objV := t.pop(f)
			ref, ok := objV.(RefV)
			if !ok || int(ref) < 0 || int(ref) >= len(w.heap) {
				return &RuntimeError{t.Name, in.Line, "method call on non-object"}
			}
			obj := w.heap[ref]
			methods := w.prog.Classes[obj.Class]
			m := methods[in.S]
			if m == nil {
				return &RuntimeError{t.Name, in.Line, obj.Class + " has no method " + in.S}
			}
			if len(args) != len(m.Params) {
				return &RuntimeError{t.Name, in.Line, fmt.Sprintf("%s expects %d args, got %d", in.S, len(m.Params), len(args))}
			}
			f.ip++
			if m.IsReceiver {
				// Starting a receiver spawns a persistent task on the object.
				nt := w.spawn(obj.Class+"."+in.S+"@"+strconv.Itoa(int(ref)), t.ID, m, ref)
				copy(nt.vals[:len(args)], args)
				t.push(NullV{})
				if w.Trace != nil {
					w.trace(t, "start-receiver", in.Line, in.S)
				}
			} else {
				nf := t.pushFrame(m, ref)
				copy(t.vals[nf.base:nf.base+len(args)], args)
				if w.Trace != nil {
					w.trace(t, "call", in.Line, in.S)
				}
			}
		case OpReturn:
			ret := t.pop(f)
			if len(f.heldCall) > 0 {
				w.release(t.ID, f.heldCall)
			}
			base := f.base
			t.frames = t.frames[:len(t.frames)-1]
			t.vals = t.vals[:base]
			if len(t.frames) > 0 {
				t.push(ret)
			} else {
				w.taskExit(t)
				return nil
			}
		case OpPop:
			t.pop(f)
			f.ip++
		case OpMakeMsg:
			args := t.popN(f, in.A)
			t.push(MsgV{Name: in.S, Args: args})
			f.ip++
		case OpNew:
			w.heap = append(w.heap, &Object{Class: in.S})
			w.mail = append(w.mail, nil)
			t.push(RefV(len(w.heap) - 1))
			f.ip++
		case OpSend:
			tgt := t.pop(f)
			msg := t.pop(f)
			ref, ok := tgt.(RefV)
			if !ok || int(ref) < 0 || int(ref) >= len(w.heap) {
				return &RuntimeError{t.Name, in.Line, "Send target is not an object"}
			}
			mv, ok := msg.(MsgV)
			if !ok {
				return &RuntimeError{t.Name, in.Line, "Send argument is not a MESSAGE"}
			}
			w.msgSeq++
			w.mail[int(ref)] = append(w.mail[int(ref)], mailEntry{seq: w.msgSeq, msg: mv, enc: encodeValue(mv)})
			if w.Trace != nil {
				w.trace(t, "send", in.Line, mv.display())
			}
			f.ip++
			if w.sem.SendSynchronous {
				t.block = blockRendezvous
				t.blockSeq = w.msgSeq
				return nil
			}
		case OpAcquire:
			fp := w.prog.FootprintIdx[in.A]
			if t.block == blockAcquire || t.block == blockNone {
				if !w.canAcquire(t.ID, fp) {
					t.block = blockAcquire
					t.blockFP = append(t.blockFP[:0], fp...)
					if w.Trace != nil {
						w.trace(t, "block-acquire", in.Line, w.lockNames(fp))
					}
					return nil
				}
			}
			w.acquire(t.ID, fp)
			t.block = blockNone
			t.blockFP = t.blockFP[:0]
			if w.Trace != nil {
				w.trace(t, "acquire", in.Line, w.lockNames(fp))
			}
			f.ip++
		case OpRelease:
			fp := w.prog.FootprintIdx[in.A]
			w.release(t.ID, fp)
			if w.Trace != nil {
				w.trace(t, "release", in.Line, w.lockNames(fp))
			}
			f.ip++
		case OpWait:
			switch t.block {
			case blockNone:
				releaseSet := w.prog.FootprintIdx[in.A]
				if w.sem.CoarseLock {
					// Under the S7 model the lock spans the whole call, so a
					// coherent WAIT must release every level the task holds
					// (and re-acquire the same multiset on wakeup). Slot order
					// keeps the multiset canonical.
					releaseSet = nil
					for s := range w.locks {
						if ls := &w.locks[s]; ls.depth > 0 && ls.holder == t.ID {
							for d := 0; d < ls.depth; d++ {
								releaseSet = append(releaseSet, s)
							}
						}
					}
				}
				if !w.sem.WaitKeepsLock {
					w.release(t.ID, releaseSet)
				}
				t.block = blockWaitNotify
				t.blockFP = append(t.blockFP[:0], releaseSet...)
				w.waiters = append(w.waiters, t.ID)
				if w.Trace != nil {
					w.trace(t, "wait", in.Line, w.lockNames(releaseSet))
				}
				return nil
			case blockReacquire:
				// Woken by NOTIFY; re-acquire and continue after WAIT().
				// Under WaitKeepsLock the lock was never released.
				if !w.sem.WaitKeepsLock {
					w.acquire(t.ID, t.blockFP)
				}
				t.block = blockNone
				t.blockFP = t.blockFP[:0]
				if w.Trace != nil {
					w.trace(t, "wake", in.Line, "")
				}
				f.ip++
			default:
				return &RuntimeError{t.Name, in.Line, "invalid wait state"}
			}
		case OpNotify:
			w.notifyWaiters(t, in.Line)
			f.ip++
		case OpPara:
			children := w.prog.ParaBlocks[in.A]
			for _, child := range children {
				w.spawn(child.spawnName, t.ID, child, f.self)
			}
			t.children = len(children)
			if w.Trace != nil {
				w.trace(t, "para", in.Line, fmt.Sprintf("%d tasks", len(children)))
			}
			f.ip++
		case OpParaJoin:
			if t.children > 0 {
				t.block = blockJoin
				return nil
			}
			t.block = blockNone
			if w.Trace != nil {
				w.trace(t, "join", in.Line, "")
			}
			f.ip++
		case OpReceive:
			table := w.prog.RecvTables[in.A]
			cands := w.receiveCandidates(t, table)
			if len(cands) == 0 {
				t.block = blockReceive
				return nil
			}
			opt := ch.Option
			if opt >= len(cands) {
				opt = 0
			}
			cand := cands[opt]
			box := w.mail[int(f.self)]
			entry := box[cand.entryIdx]
			w.mail[int(f.self)] = append(box[:cand.entryIdx:cand.entryIdx], box[cand.entryIdx+1:]...)
			// A rendezvous sender blocked on this message is now released.
			if w.sem.SendSynchronous {
				for _, st := range w.Tasks {
					if st.block == blockRendezvous && st.blockSeq == entry.seq {
						st.block = blockNone
					}
				}
			}
			cl := &table.Clauses[cand.clauseIdx]
			for i, slot := range cl.ParamSlots {
				t.vals[f.base+slot] = entry.msg.Args[i]
			}
			t.block = blockNone
			if w.Trace != nil {
				w.trace(t, "receive", in.Line, entry.msg.display())
			}
			f.ip = cl.Target
		default:
			return &RuntimeError{t.Name, in.Line, "unknown opcode " + in.Op.String()}
		}
	}
}

func (w *World) notifyWaiters(t *Task, line int) {
	if len(w.waiters) == 0 {
		if w.Trace != nil {
			w.trace(t, "notify", line, "no waiters")
		}
		return
	}
	wake := w.waiters
	if w.sem.NotifyWakesOne {
		wake = w.waiters[:1]
		w.waiters = append([]int(nil), w.waiters[1:]...)
	} else {
		w.waiters = w.waiters[:0]
	}
	for _, id := range wake {
		for _, wt := range w.Tasks {
			if wt.ID == id && wt.block == blockWaitNotify {
				wt.block = blockReacquire
			}
		}
	}
	if w.Trace != nil {
		w.trace(t, "notify", line, fmt.Sprintf("woke %d", len(wake)))
	}
}

func (w *World) taskExit(t *Task) {
	if t.Done {
		return
	}
	t.Done = true
	if w.Trace != nil {
		w.trace(t, "exit", 0, "")
	}
	// Release anything still held (defensive; balanced programs hold nothing).
	for s := range w.locks {
		if ls := &w.locks[s]; ls.depth > 0 && ls.holder == t.ID {
			ls.depth = 0
		}
	}
	if t.Parent >= 0 {
		for _, pt := range w.Tasks {
			if pt.ID == t.Parent {
				if pt.children > 0 {
					pt.children--
				}
				if pt.children == 0 && pt.block == blockJoin {
					pt.block = blockNone
				}
			}
		}
	}
}

func (w *World) trace(t *Task, op string, line int, detail string) {
	if w.Trace != nil {
		w.Trace(StepEvent{TaskID: t.ID, TaskName: t.Name, Op: op, Line: line, Detail: detail})
	}
}

// popNScratch pops n values into a reused buffer (for call argument binding,
// where the values are copied into frame locals immediately).
func (w *World) popNScratch(t *Task, f *frame, n int) []Value {
	if cap(w.scrArgs) < n {
		w.scrArgs = make([]Value, n)
	}
	vals := w.scrArgs[:n]
	for i := n - 1; i >= 0; i-- {
		vals[i] = t.pop(f)
	}
	return vals
}

func (w *World) popObject(t *Task, f *frame, line int) (*Object, error) {
	v := t.pop(f)
	ref, ok := v.(RefV)
	if !ok || int(ref) < 0 || int(ref) >= len(w.heap) {
		return nil, &RuntimeError{t.Name, line, "not an object"}
	}
	return w.heap[ref], nil
}

// store resolves an assignment target: existing local → method self field →
// existing global → new binding (global at top level, local otherwise). The
// compiler pre-resolved the local and global slots.
func (w *World) store(t *Task, f *frame, in Instr, v Value) {
	if in.L >= 0 && t.vals[f.base+in.L] != nil {
		t.vals[f.base+in.L] = v
		return
	}
	if int(f.self) >= 0 {
		if w.heap[f.self].Field(in.S) != nil {
			w.heap[f.self].SetField(in.S, v)
			return
		}
	}
	if in.G >= 0 && w.globals[in.G] != nil {
		w.globals[in.G] = v
		return
	}
	if f.code == w.prog.Main {
		w.globals[in.G] = v
		return
	}
	t.vals[f.base+in.L] = v
}

// --- Terminal classification ---

// TerminalKind classifies a state with no runnable tasks.
type TerminalKind int

const (
	// NotTerminal: some task can still run.
	NotTerminal TerminalKind = iota
	// Completed: every task finished.
	Completed
	// Quiescent: the only blocked tasks are receivers with empty/unmatched
	// mailboxes — normal for programs with persistent receiver loops.
	Quiescent
	// Deadlocked: some task is stuck on a lock, condition, join, or
	// rendezvous that no runnable task can ever satisfy.
	Deadlocked
)

func (k TerminalKind) String() string {
	switch k {
	case NotTerminal:
		return "running"
	case Completed:
		return "completed"
	case Quiescent:
		return "quiescent"
	case Deadlocked:
		return "deadlocked"
	default:
		return fmt.Sprintf("TerminalKind(%d)", int(k))
	}
}

// effectiveBlock reports why a non-runnable task cannot proceed, probing
// the parked instruction when the task has not yet recorded a block state
// (it may be parked at the OpStep preceding a blocking op).
func (w *World) effectiveBlock(t *Task) blockKind {
	if t.block != blockNone {
		return t.block
	}
	f := t.top()
	if f == nil {
		return blockNone
	}
	in := f.code.Instrs[f.ip]
	probe := in
	if in.Op == OpStep && f.ip+1 < len(f.code.Instrs) {
		probe = f.code.Instrs[f.ip+1]
	}
	switch probe.Op {
	case OpReceive:
		return blockReceive
	case OpAcquire:
		return blockAcquire
	case OpParaJoin:
		return blockJoin
	case OpCall:
		return blockAcquire // only blocking under CoarseLock
	}
	return blockNone
}

// Classify reports whether the world is terminal and how.
func (w *World) Classify() TerminalKind {
	// Early-out without materializing the choice list: predicates call
	// Classify at every explored state.
	for _, t := range w.Tasks {
		if w.taskOptions(t) > 0 {
			return NotTerminal
		}
	}
	return w.classifyBlocked()
}

// classifyBlocked classifies a world already known to have no runnable
// choices (the explorer computes Runnable once and reuses it).
func (w *World) classifyBlocked() TerminalKind {
	allDone := true
	onlyReceivers := true
	for _, t := range w.Tasks {
		if t.Done {
			continue
		}
		allDone = false
		if w.effectiveBlock(t) != blockReceive {
			onlyReceivers = false
		}
	}
	if allDone {
		return Completed
	}
	if onlyReceivers {
		return Quiescent
	}
	return Deadlocked
}

// BlockedTasks returns the names of non-done, non-runnable tasks and their
// block reasons, for deadlock reports.
func (w *World) BlockedTasks() []string {
	var out []string
	for _, t := range w.Tasks {
		if !t.Done && w.taskOptions(t) == 0 {
			out = append(out, fmt.Sprintf("%s(%s)", t.Name, w.effectiveBlock(t)))
		}
	}
	sort.Strings(out)
	return out
}

// Encode produces a canonical string for state memoization: globals, heap,
// mailboxes (as multisets under bag delivery, sequences under FIFO), tasks
// (code, ip, locals, stack, block state), locks, waiters, and output.
func (w *World) Encode() string { return string(w.appendEncode(nil)) }

// appendEncode appends the canonical state encoding to b. The format is
// binary: one-byte section tags, count-prefixed lists, and self-delimiting
// value encodings — no quoting or decimal formatting. The explorer streams
// it through a reused buffer and hashes it, so the encoding itself is never
// retained per state.
func (w *World) appendEncode(b []byte) []byte {
	b = append(b, 'G')
	ng := 0
	for _, v := range w.globals {
		if v != nil {
			ng++
		}
	}
	b = appendU32(b, uint32(ng))
	for i, v := range w.globals {
		if v == nil {
			continue
		}
		b = appendU32(b, uint32(i))
		b = v.encode(b)
	}
	b = append(b, 'H')
	b = appendU32(b, uint32(len(w.heap)))
	for i, o := range w.heap {
		b = o.encode(b)
		// Mailbox lives in w.mail, encode here per object.
		box := w.mail[i]
		b = appendU32(b, uint32(len(box)))
		if w.sem.FIFOMailboxes || len(box) < 2 {
			for e := range box {
				b = append(b, box[e].enc...)
			}
		} else {
			// Bag delivery: mailbox content is a multiset — encode the
			// entries in sorted order so arrival order doesn't split states.
			encs := w.scrEncs[:0]
			for e := range box {
				encs = append(encs, box[e].enc)
			}
			for x := 1; x < len(encs); x++ {
				for y := x; y > 0 && encs[y] < encs[y-1]; y-- {
					encs[y], encs[y-1] = encs[y-1], encs[y]
				}
			}
			for _, e := range encs {
				b = append(b, e...)
			}
			w.scrEncs = encs[:0]
		}
	}
	b = append(b, 'T')
	b = appendU32(b, uint32(len(w.Tasks)))
	for _, t := range w.Tasks {
		b = appendU32(b, uint32(t.ID))
		b = appendStr(b, t.Name)
		if t.Done {
			b = append(b, 1)
			continue
		}
		b = append(b, 0, byte(t.block))
		b = appendU32(b, uint32(t.children))
		b = appendU32(b, uint32(len(t.blockFP)))
		for _, s := range t.blockFP {
			b = appendU32(b, uint32(s))
		}
		if t.block == blockRendezvous {
			// Encode the awaited message by content (seq numbers are
			// path-dependent and would defeat memoization).
			found := false
			for oid := 0; oid < len(w.heap) && !found; oid++ {
				for e := range w.mail[oid] {
					if w.mail[oid][e].seq == t.blockSeq {
						b = append(b, 1)
						b = appendU32(b, uint32(oid))
						b = append(b, w.mail[oid][e].enc...)
						found = true
						break
					}
				}
			}
			if !found {
				b = append(b, 0)
			}
		}
		b = appendU32(b, uint32(len(t.frames)))
		for fi := range t.frames {
			f := &t.frames[fi]
			end := len(t.vals)
			if fi+1 < len(t.frames) {
				end = t.frames[fi+1].base
			}
			b = appendU32(b, uint32(f.code.id))
			b = appendU32(b, uint32(f.ip))
			b = appendU32(b, uint32(int32(f.self)))
			locals := t.vals[f.base : f.base+f.code.NumLocals]
			nl := 0
			for _, v := range locals {
				if v != nil {
					nl++
				}
			}
			b = appendU32(b, uint32(nl))
			for i, v := range locals {
				if v == nil {
					continue
				}
				b = appendU32(b, uint32(i))
				b = v.encode(b)
			}
			stack := t.vals[f.base+f.code.NumLocals : end]
			b = appendU32(b, uint32(len(stack)))
			for _, v := range stack {
				b = v.encode(b)
			}
		}
	}
	b = append(b, 'L')
	nh := 0
	for i := range w.locks {
		if w.locks[i].depth > 0 {
			nh++
		}
	}
	b = appendU32(b, uint32(nh))
	for i := range w.locks {
		if w.locks[i].depth == 0 {
			continue
		}
		b = appendU32(b, uint32(i))
		b = appendU32(b, uint32(w.locks[i].holder))
		b = appendU32(b, uint32(w.locks[i].depth))
	}
	b = append(b, 'W')
	b = appendU32(b, uint32(len(w.waiters)))
	for _, id := range w.waiters {
		b = appendU32(b, uint32(id))
	}
	b = append(b, 'Z')
	b = appendU32(b, uint32(len(w.output)))
	b = append(b, w.output...)
	return b
}
