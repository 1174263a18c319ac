// Package par provides the deterministic worker-pool primitives behind
// every parallel fan-out in this repository.
//
// The pipeline's unit of work is one user: generation, visit detection,
// matching and classification all treat users independently, so user-level
// fan-out is the natural scaling axis. The contract every helper here
// upholds is that parallel execution is observationally identical to the
// serial loop:
//
//   - work items are addressed by index and results land in index-addressed
//     slots, never appended from goroutines;
//   - when several items fail, the error reported is the one the serial
//     loop would have hit first (the lowest index), regardless of the order
//     goroutines happened to finish in;
//   - workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 runs the plain
//     serial loop on the calling goroutine — the exact legacy path with no
//     goroutine overhead.
//
// Callers that need randomness must pre-split their rng streams serially
// (in index order, on the calling goroutine) before fanning out, so the
// parent stream advances identically to the serial path.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), and the result is capped at n so a tiny job does
// not spawn idle goroutines.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// SplitBudget divides an explicit worker budget across the branches of a
// nested fan-out (an outer loop whose body fans out again), so the total
// worker count stays within what the caller asked for. Non-positive
// budgets ("all cores") pass through unchanged: goroutine counts may then
// exceed GOMAXPROCS, but actual CPU parallelism is still capped by the
// scheduler.
func SplitBudget(workers, branches int) int {
	if workers <= 1 || branches <= 1 {
		return workers
	}
	return (workers + branches - 1) / branches
}

// ForErr runs f(i) for every i in [0, n) on the given number of workers.
// When one or more calls fail, the error returned is the one at the lowest
// index — exactly the error a serial loop would have returned — and items
// not yet claimed at failure time are skipped. The guarantee holds because
// the failure flag is checked before an index is claimed, never after:
// every claimed item runs to completion, and indices are claimed in
// increasing order, so the lowest failing index is always claimed before
// any higher one and always records its own error.
func ForErr(workers, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Map runs f over every index in [0, n) and collects the results into an
// index-addressed slice, so out[i] corresponds to item i regardless of
// completion order. On error the partial slice is discarded and the
// lowest-index error is returned (see ForErr).
func Map[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForErr(workers, n, func(i int) error {
		v, err := f(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
