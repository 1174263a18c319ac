package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{1, 100, 1},
		{8, 100, 8},
		{8, 3, 3},
		{8, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		workers, branches, want int
	}{
		{0, 2, 0}, // "all cores" passes through
		{-1, 2, -1},
		{1, 2, 1}, // serial stays serial
		{8, 2, 4},
		{7, 2, 4},
		{8, 1, 8},
	}
	for _, c := range cases {
		if got := SplitBudget(c.workers, c.branches); got != c.want {
			t.Errorf("SplitBudget(%d, %d) = %d, want %d", c.workers, c.branches, got, c.want)
		}
	}
}

func TestForErrVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			counts := make([]atomic.Int64, max(n, 1))
			if err := ForErr(workers, n, func(i int) error { counts[i].Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		out, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	// Indices 10 and 40 both fail; the slow early failure must win over
	// the fast late one, matching what a serial loop would return.
	for _, workers := range []int{1, 2, 8} {
		err := ForErr(workers, 50, func(i int) error {
			switch i {
			case 10:
				time.Sleep(10 * time.Millisecond)
				return fmt.Errorf("item %d", i)
			case 40:
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 10" {
			t.Fatalf("workers=%d: got %v, want item 10", workers, err)
		}
	}
}

func TestForErrSkipsAfterFailure(t *testing.T) {
	// With a single failure at index 0 and enough delay, the later items
	// should mostly be skipped rather than all executed.
	var ran atomic.Int64
	err := ForErr(2, 10000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got == 10000 {
		t.Errorf("all %d items ran despite early failure", got)
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("expected nil slice on error, got %v", out)
	}
}

func TestForErrZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -5} {
		if err := ForErr(4, n, func(i int) error { return errors.New("x") }); err != nil {
			t.Fatalf("ForErr with n=%d returned %v", n, err)
		}
	}
}
