// Allocation budgets are measured in regular builds only, like the
// other SteadyStateAllocs tests: the race detector changes what the
// runtime allocates.
//
//go:build !race

package visits

import (
	"math"
	"runtime"
	"testing"

	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// TestDetectSteadyStateAllocs: Detect scans the trace in place, so the
// bytes it allocates depend on the visits it emits, not on the number of
// fixes. A 1k-fix and a 50k-fix trace with the same five visits — the
// rest is movement that never settles — must allocate the same.
func TestDetectSteadyStateAllocs(t *testing.T) {
	db, err := poi.NewDB([]poi.POI{
		{ID: 0, Category: poi.Food, Loc: at(30)},
		{ID: 1, Category: poi.Shop, Loc: at(2030)},
	})
	if err != nil {
		t.Fatal(err)
	}
	withMovement := func(n int) trace.GPSTrace {
		var tr trace.GPSTrace
		for v := int64(0); v < 5; v++ {
			tr = stationary(tr, at(float64(v)*1000), v*20, 10)
		}
		// Alternate between two points 500 m apart, one fix a minute:
		// every window closes at once, too short to be a visit.
		for m := int64(100); len(tr) < n; m++ {
			tr = append(tr, trace.GPSPoint{T: m * 60, Loc: at(10000 + float64(m%2)*500)})
		}
		return tr
	}
	bytesPerCall := func(tr trace.GPSTrace) (uint64, int) {
		vs, err := Detect(tr, DefaultConfig(), db)
		if err != nil {
			t.Fatal(err)
		}
		// TotalAlloc is process-wide, so the runtime's own background
		// allocations can only add to a round; the least round is the
		// one that saw Detect alone.
		const rounds, runs = 5, 20
		least := uint64(math.MaxUint64)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := Detect(tr, DefaultConfig(), db); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least, len(vs)
	}
	small, nSmall := bytesPerCall(withMovement(1000))
	large, nLarge := bytesPerCall(withMovement(50000))
	if nSmall != 5 || nLarge != 5 {
		t.Fatalf("visits: %d and %d, want 5 and 5", nSmall, nLarge)
	}
	if large > small {
		t.Fatalf("Detect allocated %d bytes/call on 50k fixes vs %d on 1k: allocation grows with the trace", large, small)
	}
}
