package par

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// mergeRef computes the reference merged event order for the given
// shard lengths: one item per live shard per round, shards in index
// order, and each shard's end ({s, -1}) in the round after its last
// item, at the position its next item would have taken.
func mergeRef(lens []int) [][2]int {
	var out [][2]int
	for round := 0; ; round++ {
		progressed := false
		for s, n := range lens {
			switch {
			case round < n:
				out = append(out, [2]int{s, round})
			case round == n:
				out = append(out, [2]int{s, -1})
			default:
				continue
			}
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// TestMergeStreamsOrderAndResults pins the merged-order contract across
// worker counts and uneven shard lengths: sink sees every (shard, idx,
// result) exactly once, in the deterministic round-robin merged order,
// and end(s) runs once per shard, after its last item, at its merged
// position.
func TestMergeStreamsOrderAndResults(t *testing.T) {
	lens := []int{17, 0, 5, 40, 1}
	want := mergeRef(lens)
	for _, workers := range []int{1, 2, 4, 8, 16} {
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
				},
				func(shard int) error {
					got = append(got, [2]int{shard, -1})
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("saw %d events, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d = %v, want %v (merged order broken)", i, got[i], want[i])
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

// TestMergeStreamsEdges covers zero sources, all-empty sources (each
// still ends), and a single source.
func TestMergeStreamsEdges(t *testing.T) {
	if err := MergeStreams(8, nil,
		func(s, i, v int) (int, error) { return v, nil },
		func(s, i, r int) error { return nil },
		func(s int) error { t.Error("end called with no sources"); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		var ended []int
		err := MergeStreams(workers,
			[]func() (int, error){sliceNext(nil), sliceNext(nil)},
			func(s, i, v int) (int, error) { t.Error("f called on empty streams"); return 0, nil },
			func(s, i, r int) error { t.Error("sink called on empty streams"); return nil },
			func(s int) error { ended = append(ended, s); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ended) != "[0 1]" {
			t.Errorf("workers=%d: empty sources ended %v, want [0 1]", workers, ended)
		}
		var got []int
		err = MergeStreams(workers,
			[]func() (int, error){sliceNext([]int{7, 8, 9})},
			func(s, i, v int) (int, error) { return v, nil },
			func(s, i, r int) error { got = append(got, r); return nil }, noEnd)
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
			func(shard, idx int, r int) error { return nil }, noEnd)
		if err == nil || err.Error() != "shard 1 item 2 failed" {
			t.Errorf("workers=%d: err = %v, want shard 1 item 2", workers, err)
		}
	}
}

// TestMergeStreamsSourceError propagates a failing next at its merged
// position. The short clean source ends before the failure; the failing
// source never ends.
func TestMergeStreamsSourceError(t *testing.T) {
	srcErr := errors.New("shard 1 unreadable")
	for _, workers := range []int{1, 2, 8} {
		var events [][2]int
		items := sliceNext(seq(1, 4))
		err := MergeStreams(workers,
			[]func() (int, error){
				sliceNext(seq(0, 2)),
				func() (int, error) {
					if v, err := items(); err != io.EOF {
						return v, err
					}
					return 0, srcErr
				},
			},
			func(shard, idx int, v int) (int, error) { return v, nil },
			func(shard, idx int, r int) error {
				events = append(events, [2]int{shard, idx})
				return nil
			},
			func(shard int) error {
				events = append(events, [2]int{shard, -1})
				return nil
			})
		if !errors.Is(err, srcErr) {
			t.Errorf("workers=%d: err = %v, want source error", workers, err)
		}
		// Merged order: both shards deliver two rounds, shard 0 ends,
		// shard 1 delivers its last two items, then its position fails.
		want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, -1}, {1, 2}, {1, 3}}
		if fmt.Sprint(events) != fmt.Sprint(want) {
			t.Errorf("workers=%d: events %v before the error, want %v", workers, events, want)
		}
	}
}

// TestMergeStreamsSinkError stops the run when sink or end fails, and
// returns that error.
func TestMergeStreamsSinkError(t *testing.T) {
	stopErr := errors.New("sink full")
	for _, tc := range []struct {
		name      string
		sinkFails bool // else end fails
		want      int  // sink calls before the run stops
	}{
		// Shard 0 has 3 items: its end is the 7th event, after 6 sinks.
		{"sink", true, 7},
		{"end", false, 6},
	} {
		for _, workers := range []int{1, 2, 8} {
			seen := 0
			err := MergeStreams(workers,
				[]func() (int, error){sliceNext(seq(0, 3)), sliceNext(seq(1, 100))},
				func(shard, idx int, v int) (int, error) { return v, nil },
				func(shard, idx int, r int) error {
					seen++
					if tc.sinkFails && seen == 7 {
						return stopErr
					}
					return nil
				},
				func(shard int) error {
					if shard != 0 || seen != 6 {
						t.Errorf("%s workers=%d: end(%d) after %d sinks, want end(0) after 6", tc.name, workers, shard, seen)
					}
					if !tc.sinkFails {
						return stopErr
					}
					return nil
				})
			if !errors.Is(err, stopErr) {
				t.Errorf("%s workers=%d: err = %v, want %v", tc.name, workers, err, stopErr)
			}
			if seen != tc.want {
				t.Errorf("%s workers=%d: sink called %d times, want %d", tc.name, workers, seen, tc.want)
			}
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
		}, noEnd)
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
		func(shard, idx int, r int) error { return nil }, noEnd)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}
