package par

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// mergeRef computes the reference merged delivery order for the given
// shard lengths: one item per live shard per round, shards in index
// order.
func mergeRef(lens []int) [][2]int {
	var out [][2]int
	for round := 0; ; round++ {
		progressed := false
		for s, n := range lens {
			if round < n {
				out = append(out, [2]int{s, round})
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

// TestMergeStreamsOrderAndResults pins the merged-order contract across
// worker counts and uneven shard lengths: sink sees every (shard, idx,
// result) exactly once, in the deterministic round-robin merged order.
func TestMergeStreamsOrderAndResults(t *testing.T) {
	lens := []int{17, 0, 5, 40, 1}
	want := mergeRef(lens)
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			next := make([]func() (int, error), len(lens))
			for s, n := range lens {
				next[s] = sliceNext(seq(s, n))
			}
			var got [][2]int
			err := MergeStreams(workers, next,
				func(shard, idx int, v int) (int, error) {
					if v%5 == 0 { // stagger completions
						time.Sleep(time.Millisecond)
					}
					return v * 2, nil
				},
				func(shard, idx int, r int) error {
					if wantV := (shard*1000 + idx) * 2; r != wantV {
						t.Errorf("shard %d idx %d: result %d, want %d", shard, idx, r, wantV)
					}
					got = append(got, [2]int{shard, idx})
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("sink saw %d items, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("delivery %d = %v, want %v (merged order broken)", i, got[i], want[i])
				}
			}
		})
	}
}

// seq returns shard s's values: s*1000, s*1000+1, ...
func seq(s, n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = s*1000 + i
	}
	return vals
}

// TestMergeStreamsEdges covers zero sources, all-empty sources, and a
// single source.
func TestMergeStreamsEdges(t *testing.T) {
	if err := MergeStreams(8, nil,
		func(s, i, v int) (int, error) { return v, nil },
		func(s, i, r int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		err := MergeStreams(workers,
			[]func() (int, error){sliceNext(nil), sliceNext(nil)},
			func(s, i, v int) (int, error) { t.Error("f called on empty streams"); return 0, nil },
			func(s, i, r int) error { t.Error("sink called on empty streams"); return nil })
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		err = MergeStreams(workers,
			[]func() (int, error){sliceNext([]int{7, 8, 9})},
			func(s, i, v int) (int, error) { return v, nil },
			func(s, i, r int) error { got = append(got, r); return nil })
		if err != nil || len(got) != 3 || got[0] != 7 || got[2] != 9 {
			t.Fatalf("single source: got %v, err %v", got, err)
		}
	}
}

// TestMergeStreamsEarliestError asserts the deterministic error
// contract: the reported error is the one at the earliest merged
// position, not whichever goroutine failed first.
func TestMergeStreamsEarliestError(t *testing.T) {
	// Shard 0 fails at idx 5 (merged position: round 5), shard 1 at
	// idx 2 (round 2). The earliest merged failure is shard 1's, even
	// though shard 0's items complete faster.
	for _, workers := range []int{1, 4, 16} {
		next := []func() (int, error){sliceNext(seq(0, 20)), sliceNext(seq(1, 20))}
		err := MergeStreams(workers, next,
			func(shard, idx int, v int) (int, error) {
				if shard == 0 && idx == 5 {
					return 0, fmt.Errorf("shard 0 item 5 failed")
				}
				if shard == 1 && idx == 2 {
					time.Sleep(2 * time.Millisecond) // fail slowly
					return 0, fmt.Errorf("shard 1 item 2 failed")
				}
				return v, nil
			},
			func(shard, idx int, r int) error { return nil })
		if err == nil || err.Error() != "shard 1 item 2 failed" {
			t.Errorf("workers=%d: err = %v, want shard 1 item 2", workers, err)
		}
	}
}

// TestMergeStreamsSourceError propagates a failing next at its merged
// position.
func TestMergeStreamsSourceError(t *testing.T) {
	srcErr := errors.New("shard 1 unreadable")
	for _, workers := range []int{1, 8} {
		var delivered [][2]int
		err := MergeStreams(workers,
			[]func() (int, error){
				sliceNext(seq(0, 10)),
				func() (int, error) { return 0, srcErr },
			},
			func(shard, idx int, v int) (int, error) { return v, nil },
			func(shard, idx int, r int) error {
				delivered = append(delivered, [2]int{shard, idx})
				return nil
			})
		if !errors.Is(err, srcErr) {
			t.Errorf("workers=%d: err = %v, want source error", workers, err)
		}
		// Merged order: (0,0) delivers, then shard 1's position fails.
		if len(delivered) != 1 || delivered[0] != [2]int{0, 0} {
			t.Errorf("workers=%d: delivered %v before the error, want [[0 0]]", workers, delivered)
		}
	}
}

// TestMergeStreamsSinkError stops the run when sink fails.
func TestMergeStreamsSinkError(t *testing.T) {
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 8} {
		seen := 0
		err := MergeStreams(workers,
			[]func() (int, error){sliceNext(seq(0, 100)), sliceNext(seq(1, 100))},
			func(shard, idx int, v int) (int, error) { return v, nil },
			func(shard, idx int, r int) error {
				seen++
				if seen == 7 {
					return sinkErr
				}
				return nil
			})
		if !errors.Is(err, sinkErr) {
			t.Errorf("workers=%d: err = %v, want sink error", workers, err)
		}
		if seen != 7 {
			t.Errorf("workers=%d: sink called %d times after error, want 7", workers, seen)
		}
	}
}

// TestMergeStreamsBoundedInFlight verifies the memory contract across
// all sources: items pulled but not yet delivered stay O(workers +
// shards) even with a slow consumer.
func TestMergeStreamsBoundedInFlight(t *testing.T) {
	const workers, shards, perShard = 4, 3, 100
	var pulled, delivered atomic.Int64
	var maxInFlight atomic.Int64
	next := make([]func() (int, error), shards)
	for s := 0; s < shards; s++ {
		i := 0
		next[s] = func() (int, error) {
			if i >= perShard {
				return 0, io.EOF
			}
			i++
			p := pulled.Add(1)
			if inFlight := p - delivered.Load(); inFlight > maxInFlight.Load() {
				maxInFlight.Store(inFlight)
			}
			return i, nil
		}
	}
	err := MergeStreams(workers, next,
		func(shard, idx int, v int) (int, error) { return v, nil },
		func(shard, idx int, r int) error {
			time.Sleep(200 * time.Microsecond) // slow consumer
			delivered.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Window ~2*workers+shards buffered, plus workers in flight and
	// hand-over slack.
	limit := int64(2*workers + shards + workers + 2*shards + 2)
	if got := maxInFlight.Load(); got > limit {
		t.Errorf("max in-flight items %d exceeds bound %d", got, limit)
	}
}

// TestMergeStreamsConcurrencyCap verifies f never runs on more than the
// requested number of workers at once, across all sources combined.
func TestMergeStreamsConcurrencyCap(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	next := []func() (int, error){sliceNext(seq(0, 50)), sliceNext(seq(1, 50)), sliceNext(seq(2, 50))}
	err := MergeStreams(workers, next,
		func(shard, idx int, v int) (int, error) {
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
		func(shard, idx int, r int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}
