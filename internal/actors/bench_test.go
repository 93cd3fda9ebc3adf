package actors

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// BenchmarkMailboxThroughput: messages/sec through one mailbox with
// concurrent senders. "ring" is the unbounded mailbox, whose reservation is
// one fetch-add; "bounded" sets a cap far above the workload, so every put
// takes the bounded admission path (a CAS against tail − head < cap) and
// none ever waits.
func BenchmarkMailboxThroughput(b *testing.B) {
	impls := []struct {
		name string
		mk   func() *mailbox
	}{
		{"ring", func() *mailbox { return newMailbox(0, MailboxBlock, 0, 0) }},
		{"bounded", func() *mailbox { return newMailbox(1<<30, MailboxBlock, time.Millisecond, 0) }},
	}
	for _, impl := range impls {
		for _, senders := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/senders=%d", impl.name, senders), func(b *testing.B) {
				m := impl.mk()
				total := b.N
				b.ResetTimer()
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					n := total / senders
					if s < total%senders {
						n++
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							m.put(Envelope{Msg: i}, putWait)
						}
					}(n)
				}
				got := 0
				var buf []Envelope
				for got < total {
					// The consumer never waits on a mailbox (a worker only
					// drains a scheduled actor), so spin on an empty one.
					batch := m.drain(buf[:0], 64)
					if len(batch) == 0 {
						runtime.Gosched()
					}
					got += len(batch)
				}
				wg.Wait()
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "msgs/sec")
			})
		}
	}
}

// BenchmarkMailboxBatchedDrain isolates the receive side: one flooded
// mailbox drained in batches vs envelope-at-a-time.
func BenchmarkMailboxBatchedDrain(b *testing.B) {
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m := newMailbox(0, MailboxBlock, 0, 0)
			for i := 0; i < b.N; i++ {
				m.put(Envelope{Msg: i}, putWait)
			}
			b.ResetTimer()
			got := 0
			var buf []Envelope
			for got < b.N {
				got += len(m.drain(buf[:0], batch))
			}
		})
	}
}

// BenchmarkDispatchTell: 8 concurrent senders flooding one actor through
// the full system send path.
func BenchmarkDispatchTell(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		count++
		if count == b.N {
			close(done)
		}
	})
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		n := b.N / 8
		if s < b.N%8 {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sink.Tell(i)
			}
		}(n)
	}
	wg.Wait()
	if b.N > 0 {
		<-done
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkDispatchPingPong: request/response latency, one run-queue hop
// per turn.
func BenchmarkDispatchPingPong(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	rounds := 0
	var pong *Ref
	ping := sys.MustSpawn("ping", func(ctx *Context, msg any) {
		rounds++
		if rounds >= b.N {
			close(done)
			return
		}
		ctx.Send(pong, nil)
	})
	pong = sys.MustSpawn("pong", func(ctx *Context, msg any) { ctx.Reply(nil) })
	b.ResetTimer()
	ping.Tell(nil)
	<-done
}

// BenchmarkDispatchFanOut: one round of work scattered across 1000 actors —
// the many-mostly-idle-actors shape the worker pool targets.
func BenchmarkDispatchFanOut(b *testing.B) {
	const actors = 1000
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	refs := make([]*Ref, actors)
	for i := range refs {
		refs[i] = sys.MustSpawn("w", func(ctx *Context, msg any) {
			mu.Lock()
			count++
			if count == b.N {
				close(done)
			}
			mu.Unlock()
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs[i%actors].Tell(i)
	}
	<-done
}

// BenchmarkSpawn100kIdle spawns 100k no-op actors and reports goroutines
// per actor, ~0: an idle actor costs no goroutine.
func BenchmarkSpawn100kIdle(b *testing.B) {
	const actors = 100000
	for i := 0; i < b.N; i++ {
		before := runtime.NumGoroutine()
		sys := NewSystem(Config{})
		for j := 0; j < actors; j++ {
			sys.MustSpawn("idle", func(ctx *Context, msg any) {})
		}
		b.ReportMetric(float64(runtime.NumGoroutine()-before)/actors, "goroutines/actor")
		b.StopTimer()
		sys.Shutdown()
		b.StartTimer()
	}
}

func BenchmarkTell(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		count++
		if count == b.N {
			close(done)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Tell(i)
	}
	<-done
}

func BenchmarkTellParallelSenders(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		mu.Lock()
		count++
		if count == b.N {
			close(done)
		}
		mu.Unlock()
	})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sink.Tell(0)
		}
	})
	<-done
}

func BenchmarkPingPong(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	rounds := 0
	var pong *Ref
	ping := sys.MustSpawn("ping", func(ctx *Context, msg any) {
		rounds++
		if rounds >= b.N {
			close(done)
			return
		}
		ctx.Send(pong, nil)
	})
	pong = sys.MustSpawn("pong", func(ctx *Context, msg any) { ctx.Reply(nil) })
	b.ResetTimer()
	ping.Tell(nil)
	<-done
}

func BenchmarkSpawnStop(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	for i := 0; i < b.N; i++ {
		ref := sys.MustSpawn("t", func(ctx *Context, msg any) { ctx.Stop() })
		ref.Tell(nil)
		sys.Await(ref)
	}
}

func BenchmarkMailboxPerturbedDelivery(b *testing.B) {
	for _, cfg := range []struct {
		name string
		seed int64
	}{{"fifo", 0}, {"perturbed", 7}} {
		b.Run(cfg.name, func(b *testing.B) {
			sys := NewSystem(Config{PerturbSeed: cfg.seed})
			defer sys.Shutdown()
			done := make(chan struct{})
			count := 0
			sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
				count++
				if count == b.N {
					close(done)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Tell(i)
			}
			<-done
		})
	}
}

func BenchmarkBecome(b *testing.B) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	var a, bb Behavior
	a = func(ctx *Context, msg any) {
		count++
		if count == b.N {
			close(done)
			return
		}
		ctx.Become(bb)
	}
	bb = func(ctx *Context, msg any) {
		count++
		if count == b.N {
			close(done)
			return
		}
		ctx.Become(a)
	}
	ref := sys.MustSpawn("toggler", a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Tell(i)
	}
	<-done
}
