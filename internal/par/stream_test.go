package par

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file pin MergeStreams on a single source — the
// shape every single-file validation runs — through mapStream, which
// gives them index-only signatures.

// mapStream is MergeStreams over the one source next.
func mapStream[T, R any](workers int, next func() (T, error), f func(i int, v T) (R, error), sink func(i int, r R) error) error {
	return MergeStreams(workers, []func() (T, error){next},
		func(_, i int, v T) (R, error) { return f(i, v) },
		func(_, i int, r R) error { return sink(i, r) }, noEnd)
}

// noEnd is an end callback for tests that do not observe source ends.
func noEnd(int) error { return nil }

// sliceNext returns a next func streaming the given values then io.EOF.
func sliceNext(vals []int) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i >= len(vals) {
			return 0, io.EOF
		}
		v := vals[i]
		i++
		return v, nil
	}
}

// TestMapStreamOrderAndResults pins the core contract for several worker
// counts: sink sees every (index, result) pair exactly once, strictly in
// input order, regardless of completion order.
func TestMapStreamOrderAndResults(t *testing.T) {
	vals := make([]int, 200)
	for i := range vals {
		vals[i] = i * 3
	}
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []int
			err := mapStream(workers, sliceNext(vals),
				func(i, v int) (int, error) {
					// Stagger completions so out-of-order finishes are real.
					if i%7 == 0 {
						time.Sleep(time.Millisecond)
					}
					return v + 1, nil
				},
				func(i, r int) error {
					if i != len(got) {
						t.Errorf("sink index %d, want %d", i, len(got))
					}
					got = append(got, r)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(vals) {
				t.Fatalf("sink saw %d items, want %d", len(got), len(vals))
			}
			for i, r := range got {
				if r != vals[i]+1 {
					t.Fatalf("got[%d] = %d, want %d", i, r, vals[i]+1)
				}
			}
		})
	}
}

// TestMapStreamEmpty covers the immediate-EOF stream.
func TestMapStreamEmpty(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := mapStream(workers, sliceNext(nil),
			func(i, v int) (int, error) { t.Error("f called on empty stream"); return 0, nil },
			func(i, r int) error { t.Error("sink called on empty stream"); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMapStreamLowestIndexError asserts the deterministic error contract:
// when several items fail, the reported error is the lowest-index one,
// exactly as the serial loop would have returned.
func TestMapStreamLowestIndexError(t *testing.T) {
	vals := make([]int, 100)
	for _, workers := range []int{1, 4, 16} {
		err := mapStream(workers, sliceNext(vals),
			func(i, v int) (int, error) {
				if i >= 30 {
					return 0, fmt.Errorf("item %d failed", i)
				}
				// Let high indices fail fast while low ones dawdle.
				if i < 30 {
					time.Sleep(time.Millisecond)
				}
				return 0, nil
			},
			func(i, r int) error { return nil })
		if err == nil || err.Error() != "item 30 failed" {
			t.Errorf("workers=%d: err = %v, want item 30", workers, err)
		}
	}
}

// TestMapStreamSourceError propagates a failing next.
func TestMapStreamSourceError(t *testing.T) {
	srcErr := errors.New("stream broke")
	for _, workers := range []int{1, 8} {
		calls := 0
		err := mapStream(workers,
			func() (int, error) {
				calls++
				if calls > 5 {
					return 0, srcErr
				}
				return calls, nil
			},
			func(i, v int) (int, error) { return v, nil },
			func(i, r int) error { return nil })
		if !errors.Is(err, srcErr) {
			t.Errorf("workers=%d: err = %v, want stream error", workers, err)
		}
	}
}

// TestMapStreamSinkError stops the run on a sink failure.
func TestMapStreamSinkError(t *testing.T) {
	vals := make([]int, 500)
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 8} {
		seen := 0
		err := mapStream(workers, sliceNext(vals),
			func(i, v int) (int, error) { return v, nil },
			func(i, r int) error {
				seen++
				if seen == 10 {
					return sinkErr
				}
				return nil
			})
		if !errors.Is(err, sinkErr) {
			t.Errorf("workers=%d: err = %v, want sink error", workers, err)
		}
		if seen != 10 {
			t.Errorf("workers=%d: sink called %d times after error, want 10", workers, seen)
		}
	}
}

// TestMapStreamBoundedInFlight verifies the memory contract: the number
// of items pulled from next but not yet delivered to sink never exceeds
// the in-flight window (O(workers)), even with a slow consumer.
func TestMapStreamBoundedInFlight(t *testing.T) {
	const workers = 4
	var pulled, delivered atomic.Int64
	var maxInFlight atomic.Int64
	n := 300
	err := mapStream(workers,
		func() (int, error) {
			p := pulled.Add(1)
			if p > int64(n) {
				return 0, io.EOF
			}
			if inFlight := p - delivered.Load(); inFlight > maxInFlight.Load() {
				maxInFlight.Store(inFlight)
			}
			return int(p), nil
		},
		func(i, v int) (int, error) { return v, nil },
		func(i, r int) error {
			time.Sleep(200 * time.Microsecond) // slow consumer
			delivered.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Window is 2*workers slots plus one being handed over; leave slack
	// for the race between the Add and the Load above.
	limit := int64(2*workers + workers + 2)
	if got := maxInFlight.Load(); got > limit {
		t.Errorf("max in-flight items %d exceeds bound %d", got, limit)
	}
}

// TestMapStreamConcurrencyCap verifies f never runs on more than the
// requested number of workers at once.
func TestMapStreamConcurrencyCap(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	vals := make([]int, 100)
	err := mapStream(workers, sliceNext(vals),
		func(i, v int) (int, error) {
			c := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			return v, nil
		},
		func(i, r int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}
