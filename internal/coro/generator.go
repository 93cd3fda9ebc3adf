package coro

// Generator adapts a coroutine to Python-generator-style iteration: the
// producer calls yield(v) for each element; consumers call Next.
type Generator[T any] struct {
	co *Coroutine
}

// NewGenerator creates a generator from a producer function. The producer
// runs lazily: nothing executes until the first Next.
func NewGenerator[T any](producer func(yield func(T))) *Generator[T] {
	co := New(func(y *Yielder, _ any) any {
		producer(func(v T) { y.Yield(v) })
		return nil
	})
	return &Generator[T]{co: co}
}

// Next returns the next generated value. ok is false when the producer has
// returned (and the zero T is returned).
func (g *Generator[T]) Next() (v T, ok bool) {
	out, done, err := g.co.Resume(nil)
	if err != nil || done {
		var zero T
		return zero, false
	}
	return out.(T), true
}

// Collect drains the generator into a slice.
func (g *Generator[T]) Collect() []T {
	var out []T
	for {
		v, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Stop abandons the generator. Further Next calls return ok=false. A
// producer suspended in yield unwinds from there: its deferred calls run
// and its goroutine exits. Stop does nothing while a Next is in progress.
func (g *Generator[T]) Stop() {
	g.co.close()
}
