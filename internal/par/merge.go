package par

import (
	"io"
	"runtime"
	"sync"
)

// mergeSlot carries one in-flight item of a MergeStreams run. The
// consumer waits on done before touching out/err, so no lock is needed:
// the close happens-before the receive.
type mergeSlot[T, R any] struct {
	shard, idx int
	in         T
	out        R
	err        error
	done       chan struct{}
}

// MergeStreams maps K ordered streams of unknown length on one worker
// budget: items are pulled from each source by its own producer (so K
// files can be read concurrently; next returns io.EOF to end a
// stream), mapped by f on a single shared pool of workers, and
// delivered to sink in a deterministic merged order — round-robin
// across the sources in index order, skipping sources that have ended.
// For sources A and B the sink sees A0 B0 A1 B1 …, and once A ends, B's
// remaining items back to back; a single source is delivered in input
// order. The merged order depends only on the sources' contents, never
// on worker count or scheduling.
//
// The determinism contract matches the rest of this package:
//
//   - sink sees every (shard, index, result) exactly once, in merged
//     order, on the calling goroutine, for any worker count;
//   - end(s) runs once for each source s that ends cleanly (next
//     returned io.EOF), on the calling goroutine at the merged position
//     where s would have delivered its next item: after sink has seen
//     all of s's items, and in the same order relative to other sinks
//     and ends for any worker count. The serial loop calls it when it
//     reads the io.EOF; the pool, when the consumer finds s's order
//     channel closed. A source whose next fails never ends, and an end
//     error stops the run like a sink error;
//   - when several items fail, the error returned is the one at the
//     earliest merged position — exactly what the serial round-robin
//     loop would have hit first;
//   - at most O(workers + len(next)) items are in flight at once, so
//     memory stays bounded no matter how long the streams are;
//   - workers == 1 runs the exact serial round-robin loop on the
//     calling goroutine, with no goroutines and no read-ahead.
//
// Each next[s] is called from a single goroutine; f must be safe for
// concurrent calls on distinct items.
func MergeStreams[T, R any](workers int, next []func() (T, error), f func(shard, idx int, v T) (R, error), sink func(shard, idx int, r R) error, end func(shard int) error) error {
	k := len(next)
	if k == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		alive := make([]bool, k)
		for s := range alive {
			alive[s] = true
		}
		idx := make([]int, k)
		for live := k; live > 0; {
			for s := 0; s < k; s++ {
				if !alive[s] {
					continue
				}
				v, err := next[s]()
				if err == io.EOF {
					alive[s] = false
					live--
					if err := end(s); err != nil {
						return err
					}
					continue
				}
				if err != nil {
					return err
				}
				r, err := f(s, idx[s], v)
				if err != nil {
					return err
				}
				if err := sink(s, idx[s], r); err != nil {
					return err
				}
				idx[s]++
			}
		}
		return nil
	}

	// Per-shard windows share the global budget: the buffered order
	// channels hold ~2*workers slots total (at least one per shard), so
	// in-flight items stay O(workers + shards) and a fast shard cannot
	// buffer unboundedly ahead of the merge cursor.
	perShard := (2*workers + k - 1) / k
	jobs := make(chan *mergeSlot[T, R])
	orders := make([]chan *mergeSlot[T, R], k)
	stop := make(chan struct{})
	var producers, pool sync.WaitGroup

	for s := 0; s < k; s++ {
		orders[s] = make(chan *mergeSlot[T, R], perShard)
		producers.Add(1)
		go func(s int) { // producer: pulls one source, fans slots out
			defer producers.Done()
			defer close(orders[s])
			for i := 0; ; i++ {
				v, err := next[s]()
				if err != nil {
					if err != io.EOF {
						sl := &mergeSlot[T, R]{shard: s, idx: i, err: err, done: make(chan struct{})}
						close(sl.done)
						select {
						case orders[s] <- sl:
						case <-stop:
						}
					}
					return
				}
				sl := &mergeSlot[T, R]{shard: s, idx: i, in: v, done: make(chan struct{})}
				select {
				case orders[s] <- sl:
				case <-stop:
					return
				}
				select {
				case jobs <- sl:
				case <-stop:
					return
				}
			}
		}(s)
	}
	go func() { producers.Wait(); close(jobs) }()

	pool.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer pool.Done()
			for sl := range jobs {
				sl.out, sl.err = f(sl.shard, sl.idx, sl.in)
				close(sl.done)
			}
		}()
	}

	// Consumer (this goroutine): walk the merged order — one item from
	// each live shard per round, shards in index order. The first error
	// seen is therefore the earliest merged-position error.
	var firstErr error
	rotation := make([]int, k)
	for s := range rotation {
		rotation[s] = s
	}
	for len(rotation) > 0 && firstErr == nil {
		live := rotation[:0]
		for _, s := range rotation {
			sl, ok := <-orders[s]
			if !ok { // shard ended: drop it from the rotation
				if err := end(s); err != nil {
					firstErr = err
					break
				}
				continue
			}
			<-sl.done
			if sl.err != nil {
				firstErr = sl.err
				break
			}
			if err := sink(sl.shard, sl.idx, sl.out); err != nil {
				firstErr = err
				break
			}
			live = append(live, s)
		}
		rotation = live
	}
	close(stop)
	pool.Wait()
	return firstErr
}
