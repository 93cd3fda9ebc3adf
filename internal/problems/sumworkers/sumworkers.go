// Package sumworkers implements the sum & workers system from the course's
// pseudocode quizzes: a large array is partitioned across workers whose
// partial sums are combined into a total. Runs validate the result against
// the sequential sum.
package sumworkers

import (
	"fmt"
	"sync"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/threads"
)

// Spec returns the registry entry for this problem.
func Spec() *core.Spec {
	return &core.Spec{
		Name:        "sumworkers",
		Description: "workers sum partitions of an array; a combiner totals them",
		Defaults:    core.Params{"workers": 8, "n": 100000},
		Runs: map[core.Model]core.RunFunc{
			core.Threads:    RunThreads,
			core.Actors:     RunActors,
			core.Coroutines: RunCoroutines,
		},
	}
}

// makeInput draws n values in [-500, 500) from a SplitMix64 stream seeded
// by seed, and returns them with their sequential sum. The three models of
// one seed share one input; a counter-based stream keeps generating it to
// a few ns per value, so a run times the summing, not the generator.
func makeInput(n int, seed int64) ([]int64, int64) {
	state := uint64(seed)
	data := make([]int64, n)
	var want int64
	for i := range data {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		data[i] = int64((z>>32)*1000>>32) - 500
		want += data[i]
	}
	return data, want
}

func chunk(n, workers, i int) (int, int) {
	lo := i * n / workers
	hi := (i + 1) * n / workers
	return lo, hi
}

func verify(got, want int64, workers int) (core.Metrics, error) {
	if got != want {
		return nil, fmt.Errorf("sumworkers: sum = %d, want %d", got, want)
	}
	return core.Metrics{"sum": got, "workers": int64(workers)}, nil
}

// RunThreads: each worker sums its slice, publishes under a monitor, and
// meets the others at a barrier; the last arrival combines.
func RunThreads(p core.Params, seed int64) (core.Metrics, error) {
	workers := p.Get("workers", 8)
	n := p.Get("n", 100000)
	data, want := makeInput(n, seed)

	partial := make([]int64, workers)
	var total int64
	barrier := threads.NewBarrier(workers, func() {
		total = 0
		for _, s := range partial {
			total += s
		}
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := chunk(n, workers, w)
			var s int64
			for _, v := range data[lo:hi] {
				s += v
			}
			partial[w] = s
			barrier.Await()
		}(w)
	}
	wg.Wait()
	return verify(total, want, workers)
}

// Messages for the actor version.
type sumChunk struct {
	data []int64
	id   int
}
type partialSum struct {
	id  int
	sum int64
}

// RunActors: scatter-gather. A combiner actor collects partials from one
// worker actor per chunk.
func RunActors(p core.Params, seed int64) (core.Metrics, error) {
	workers := p.Get("workers", 8)
	n := p.Get("n", 100000)
	data, want := makeInput(n, seed)

	sys := actors.NewSystem(actors.Config{})
	defer sys.Shutdown()

	result := make(chan int64, 1)
	received := 0
	var total int64
	combiner := sys.MustSpawn("combiner", func(ctx *actors.Context, msg any) {
		m := msg.(partialSum)
		total += m.sum
		received++
		if received == workers {
			result <- total
			ctx.Stop()
		}
	})

	for w := 0; w < workers; w++ {
		worker := sys.MustSpawn(fmt.Sprintf("worker-%d", w), func(ctx *actors.Context, msg any) {
			m := msg.(sumChunk)
			var s int64
			for _, v := range m.data {
				s += v
			}
			ctx.Send(combiner, partialSum{id: m.id, sum: s})
			ctx.Stop()
		})
		lo, hi := chunk(n, workers, w)
		worker.Tell(sumChunk{data: data[lo:hi], id: w})
	}
	return verify(<-result, want, workers)
}

// RunCoroutines: worker tasks sum incrementally, yielding between blocks so
// the combiner (and other workers) interleave cooperatively; a generator
// would do as well, but tasks keep all three implementations parallel in
// structure.
func RunCoroutines(p core.Params, seed int64) (core.Metrics, error) {
	workers := p.Get("workers", 8)
	n := p.Get("n", 100000)
	data, want := makeInput(n, seed)

	s := coro.NewScheduler()
	partial := make([]int64, workers)
	doneWorkers := 0
	var total int64

	for w := 0; w < workers; w++ {
		w := w
		s.Go(fmt.Sprintf("worker-%d", w), func(tc *coro.TaskCtl) {
			lo, hi := chunk(n, workers, w)
			var sum int64
			for i := lo; i < hi; i++ {
				sum += data[i]
				if (i-lo)%4096 == 4095 {
					tc.Pause() // stay cooperative on large inputs
				}
			}
			partial[w] = sum
			doneWorkers++
		})
	}
	s.Go("combiner", func(tc *coro.TaskCtl) {
		tc.WaitUntil(func() bool { return doneWorkers == workers })
		for _, v := range partial {
			total += v
		}
	})
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("sumworkers: %w", err)
	}
	return verify(total, want, workers)
}
