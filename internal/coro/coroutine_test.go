package coro

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestResumeYieldRoundTrip(t *testing.T) {
	co := New(func(y *Yielder, in any) any {
		a := y.Yield(in.(int) + 1)
		b := y.Yield(a.(int) + 10)
		return b.(int) + 100
	})
	v, done, err := co.Resume(1)
	if err != nil || done || v != 2 {
		t.Fatalf("first resume = %v %v %v", v, done, err)
	}
	v, done, err = co.Resume(2)
	if err != nil || done || v != 12 {
		t.Fatalf("second resume = %v %v %v", v, done, err)
	}
	v, done, err = co.Resume(3)
	if err != nil || !done || v != 103 {
		t.Fatalf("final resume = %v %v %v", v, done, err)
	}
}

func TestLocalStatePersistsAcrossYields(t *testing.T) {
	// The defining coroutine property from the paper's reference [4]:
	// "values of data local to a coroutine persist between successive calls".
	co := New(func(y *Yielder, _ any) any {
		counter := 0
		for i := 0; i < 5; i++ {
			counter += 10
			y.Yield(counter)
		}
		return counter
	})
	want := []int{10, 20, 30, 40, 50}
	for _, w := range want {
		v, done, err := co.Resume(nil)
		if err != nil || done || v != w {
			t.Fatalf("got %v %v %v, want %d", v, done, err, w)
		}
	}
	v, done, err := co.Resume(nil)
	if err != nil || !done || v != 50 {
		t.Fatalf("final = %v %v %v", v, done, err)
	}
}

func TestResumeDeadCoroutine(t *testing.T) {
	co := New(func(y *Yielder, _ any) any { return "done" })
	if _, done, err := co.Resume(nil); err != nil || !done {
		t.Fatal("body should complete on first resume")
	}
	if _, _, err := co.Resume(nil); err != ErrDead {
		t.Fatalf("err = %v, want ErrDead", err)
	}
	if co.Status() != StatusDead {
		t.Fatalf("status = %v, want dead", co.Status())
	}
}

func TestStatusTransitions(t *testing.T) {
	inBody := make(chan struct{})
	release := make(chan struct{})
	co := New(func(y *Yielder, _ any) any {
		close(inBody)
		<-release
		y.Yield(1)
		return 2
	})
	if co.Status() != StatusSuspended {
		t.Fatalf("initial status = %v", co.Status())
	}
	go func() {
		<-inBody
		if s := co.Status(); s != StatusRunning {
			t.Errorf("status while executing = %v, want running", s)
		}
		close(release)
	}()
	co.Resume(nil) // returns at first yield
	if co.Status() != StatusSuspended {
		t.Fatalf("status after yield = %v", co.Status())
	}
	co.Resume(nil)
	if co.Status() != StatusDead {
		t.Fatalf("status after return = %v", co.Status())
	}
}

func TestResumeRunningCoroutineFails(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	co := New(func(y *Yielder, _ any) any {
		close(entered)
		<-release
		return nil
	})
	errCh := make(chan error, 1)
	go func() {
		_, _, err := co.Resume(nil)
		errCh <- err
	}()
	<-entered
	if _, _, err := co.Resume(nil); err != ErrRunning {
		t.Fatalf("concurrent resume err = %v, want ErrRunning", err)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagatesAsError(t *testing.T) {
	co := New(func(y *Yielder, _ any) any {
		y.Yield("ok")
		panic("kaboom")
	})
	if _, _, err := co.Resume(nil); err != nil {
		t.Fatal(err)
	}
	_, done, err := co.Resume(nil)
	if !done {
		t.Fatal("panicked coroutine should be done")
	}
	var pe PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("err = %v, want PanicError{kaboom}", err)
	}
	if co.Status() != StatusDead {
		t.Fatal("panicked coroutine should be dead")
	}
	if _, _, err := co.Resume(nil); err != ErrDead {
		t.Fatalf("resume after panic = %v, want ErrDead", err)
	}
}

func TestNilBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) should panic")
		}
	}()
	New(nil)
}

func TestDrain(t *testing.T) {
	co := New(func(y *Yielder, _ any) any {
		y.Yield(1)
		y.Yield(2)
		return 3
	})
	yields, ret, err := co.Drain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(yields) != 2 || yields[0] != 1 || yields[1] != 2 || ret != 3 {
		t.Fatalf("Drain = %v, %v", yields, ret)
	}
}

func TestDrainPanicking(t *testing.T) {
	co := New(func(y *Yielder, _ any) any {
		y.Yield(1)
		panic("x")
	})
	yields, _, err := co.Drain(nil)
	if len(yields) != 1 || err == nil {
		t.Fatalf("Drain = %v, %v", yields, err)
	}
}

func TestStackfulSuspendFromNestedCall(t *testing.T) {
	// A stackful coroutine can yield from inside nested function calls —
	// issue (3) in the paper's coroutine classification.
	var leaf func(y *Yielder, depth int)
	leaf = func(y *Yielder, depth int) {
		if depth == 0 {
			y.Yield("bottom")
			return
		}
		leaf(y, depth-1)
	}
	co := New(func(y *Yielder, _ any) any {
		leaf(y, 10)
		return "top"
	})
	v, done, err := co.Resume(nil)
	if err != nil || done || v != "bottom" {
		t.Fatalf("nested yield = %v %v %v", v, done, err)
	}
	v, done, err = co.Resume(nil)
	if err != nil || !done || v != "top" {
		t.Fatalf("completion = %v %v %v", v, done, err)
	}
}

func TestFirstClassCoroutinesInDataStructures(t *testing.T) {
	// Coroutines stored in a slice and resumed in arbitrary order.
	cos := make([]*Coroutine, 3)
	for i := range cos {
		i := i
		cos[i] = New(func(y *Yielder, _ any) any {
			y.Yield(i * 100)
			return i
		})
	}
	for _, order := range [][]int{{2, 0, 1}} {
		for _, idx := range order {
			v, _, err := cos[idx].Resume(nil)
			if err != nil || v != idx*100 {
				t.Fatalf("cos[%d] = %v %v", idx, v, err)
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusSuspended: "suspended",
		StatusRunning:   "running",
		StatusNormal:    "normal",
		StatusDead:      "dead",
		Status(42):      "Status(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestPanicErrorMessage(t *testing.T) {
	e := PanicError{Value: 7}
	if e.Error() != "coro: coroutine panicked: 7" {
		t.Fatalf("message = %q", e.Error())
	}
}

// Property: a pass-through coroutine returns exactly the values passed in.
func TestPassThroughQuick(t *testing.T) {
	f := func(vals []int64) bool {
		co := New(func(y *Yielder, in any) any {
			cur := in
			for {
				next := y.Yield(cur)
				if next == nil {
					return cur
				}
				cur = next
			}
		})
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			out, done, err := co.Resume(v)
			if err != nil || done || out != v {
				return false
			}
			_ = i
		}
		_, done, err := co.Resume(nil)
		return done && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func ExampleCoroutine() {
	co := New(func(y *Yielder, in any) any {
		fmt.Println("got", in)
		reply := y.Yield("first")
		fmt.Println("got", reply)
		return "done"
	})
	v, _, _ := co.Resume("hello")
	fmt.Println("yielded", v)
	v, done, _ := co.Resume("world")
	fmt.Println("returned", v, done)
	// Output:
	// got hello
	// yielded first
	// got world
	// returned done true
}

func TestGeneratorStopUnwindsProducer(t *testing.T) {
	cleanups := 0
	g := NewGenerator(func(yield func(int)) {
		defer func() { cleanups++ }()
		for i := 0; ; i++ {
			yield(i)
		}
	})
	g.Next()
	g.Next()
	g.Stop()
	if cleanups != 1 {
		t.Fatalf("producer cleanups after Stop = %d, want 1", cleanups)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("stopped generator should be exhausted")
	}
}

// A coroutine that finishes, is killed, or is stopped must release its
// goroutine by the time the call returns, with no sleep or GC in between.
func TestCoroutinesReleaseGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		co := New(func(y *Yielder, in any) any {
			y.Yield(in)
			return in
		})
		if _, _, err := co.Drain(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		co := New(func(y *Yielder, _ any) any {
			for {
				y.Yield(nil)
			}
		})
		co.Resume(nil)
		if err := co.Kill("shutdown"); err == nil {
			t.Fatal("Kill of a suspended coroutine should report its panic")
		}
	}
	for i := 0; i < 100; i++ {
		g := Naturals()
		g.Next()
		g.Stop()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after; %d leaked", before, after, after-before)
	}
}
