package outcome

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
)

// carriedRecord builds user id's record with 24 checkins, known truth
// labels and sizeable float columns: 1920 feature bytes, 40 flights and
// 10 pauses.
func carriedRecord(id int) *Record {
	const n = 24
	r := &Record{UserID: id, Profile: trace.Profile{Friends: id % 7, CheckinsPerDay: 2.5}, Missing: 2}
	for i := 0; i < n; i++ {
		r.Times = append(r.Times, int64(1_600_000_000+i*3600))
		kind, label := classify.Superfluous, trace.LabelSuperfluous
		if i%2 == 0 {
			kind, label = classify.Honest, trace.LabelHonest
		}
		r.Kinds = append(r.Kinds, kind)
		r.Truth = append(r.Truth, label)
		var x [detect.FeatureDim]float64
		for j := range x {
			x[j] = float64(i*j) / 7
		}
		r.Features = append(r.Features, x)
	}
	r.Visits = r.Honest() + r.Missing
	for i := 0; i < 10; i++ {
		fl := levy.Flight{Dist: float64(i) + 0.5, Time: float64(i) * 3}
		r.GPSFlights = append(r.GPSFlights, fl)
		r.HonestFlights = append(r.HonestFlights, fl)
		r.AllFlights = append(r.AllFlights, fl, fl)
		r.Pauses = append(r.Pauses, float64(i)*1.5)
	}
	return r
}

// TestAppendSteadyStateAllocs pins what carrying a record costs: Append
// over a log of canonical records may allocate at most a small constant
// per carried record — the marginal cost between a short and a long log
// — and never materializes a record's feature, flight or pause columns.
func TestAppendSteadyStateAllocs(t *testing.T) {
	dir := t.TempDir()
	measure := func(n int) (allocs, bytes float64) {
		src := filepath.Join(dir, fmt.Sprintf("src%d.gso", n))
		recs := make([]*Record, n)
		for i := range recs {
			recs[i] = carriedRecord(i)
		}
		writeLogFile(t, src, recs...)
		dst := filepath.Join(dir, "dst.gso")
		observe := func(r *Record, _ bool) error {
			if r.Features != nil || r.GPSFlights != nil || r.HonestFlights != nil || r.AllFlights != nil || r.Pauses != nil {
				return fmt.Errorf("user %d: observed record carries float columns", r.UserID)
			}
			return nil
		}
		run := func() {
			if err := Append(src, dst, nil, observe); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc - before.TotalAlloc)
	}
	shortAllocs, shortBytes := measure(100)
	longAllocs, longBytes := measure(400)
	perAllocs := (longAllocs - shortAllocs) / 300
	perBytes := (longBytes - shortBytes) / 300
	t.Logf("per carried record: %.3f allocs, %.0f bytes", perAllocs, perBytes)
	if perAllocs > 1 {
		t.Errorf("carrying a record allocates %.3f times, want <= 1", perAllocs)
	}
	// One record's feature block alone is 1920 bytes.
	if perBytes > 256 {
		t.Errorf("carrying a record allocates %.0f bytes, want <= 256", perBytes)
	}
}
