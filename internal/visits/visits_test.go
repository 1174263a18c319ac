package visits

import (
	"testing"
	"testing/quick"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/trace"
)

var base = geo.LatLon{Lat: 34.4208, Lon: -119.6982}

func at(dist float64) geo.LatLon { return geo.Destination(base, 90, dist) }

// stationary appends n per-minute fixes at the location starting at
// minute m0.
func stationary(tr trace.GPSTrace, loc geo.LatLon, m0, n int64) trace.GPSTrace {
	for i := int64(0); i < n; i++ {
		tr = append(tr, trace.GPSPoint{T: (m0 + i) * 60, Loc: loc})
	}
	return tr
}

func TestDetectSimpleStay(t *testing.T) {
	tr := stationary(nil, at(0), 0, 10) // 9 minutes stationary
	vs, err := Detect(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("visits = %d, want 1", len(vs))
	}
	if vs[0].Duration() != 9*time.Minute {
		t.Errorf("duration %v, want 9m", vs[0].Duration())
	}
	if d := geo.Distance(vs[0].Loc, at(0)); d > 1 {
		t.Errorf("centroid %.1f m off", d)
	}
}

func TestDetectBelowThreshold(t *testing.T) {
	tr := stationary(nil, at(0), 0, 5) // 4 minutes < 6
	vs, err := Detect(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("visits = %d, want 0 for a 4-minute stop", len(vs))
	}
}

func TestDetectMovementSplitsStays(t *testing.T) {
	// Stay, drive 2 km (beyond roam radius), stay again.
	tr := stationary(nil, at(0), 0, 10)
	tr = append(tr, trace.GPSPoint{T: 11 * 60, Loc: at(1000)})
	tr = stationary(tr, at(2000), 12, 10)
	vs, err := Detect(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("visits = %d, want 2", len(vs))
	}
	if geo.Distance(vs[0].Loc, at(0)) > 5 || geo.Distance(vs[1].Loc, at(2000)) > 5 {
		t.Error("visit centroids misplaced")
	}
}

func TestDetectRoamWithinRadius(t *testing.T) {
	// Fixes wobble within 60 m of the anchor: still one stay.
	s := rng.New(1)
	var tr trace.GPSTrace
	for m := int64(0); m < 15; m++ {
		tr = append(tr, trace.GPSPoint{T: m * 60, Loc: at(s.Range(0, 60))})
	}
	vs, err := Detect(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("visits = %d, want 1 for a wobbly stay", len(vs))
	}
}

func TestDetectGapSplits(t *testing.T) {
	// 25-minute silence inside a stay splits it (MaxGap 10 min).
	tr := stationary(nil, at(0), 0, 10)
	tr = stationary(tr, at(0), 35, 10)
	vs, err := Detect(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("visits = %d, want 2 after a long gap", len(vs))
	}
}

func TestDetectSnapsToPOI(t *testing.T) {
	db, err := poi.NewDB([]poi.POI{
		{ID: 0, Name: "Cafe", Category: poi.Food, Loc: at(40)},
		{ID: 1, Name: "Library", Category: poi.College, Loc: at(5000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := stationary(nil, at(0), 0, 10)
	vs, err := Detect(tr, DefaultConfig(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].POIID != 0 {
		t.Fatalf("visit not snapped to POI 0: %+v", vs)
	}
	if vs[0].Category != poi.Food {
		t.Errorf("category %v, want Food", vs[0].Category)
	}
}

func TestDetectNoSnapBeyondRadius(t *testing.T) {
	db, err := poi.NewDB([]poi.POI{
		{ID: 0, Name: "Far", Category: poi.Shop, Loc: at(400)},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := stationary(nil, at(0), 0, 10)
	vs, err := Detect(tr, DefaultConfig(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].POIID != -1 {
		t.Fatalf("visit snapped to a POI 400 m away: %+v", vs)
	}
}

func TestDetectUnsortedRejected(t *testing.T) {
	tr := trace.GPSTrace{
		{T: 600, Loc: at(0)},
		{T: 0, Loc: at(0)},
	}
	if _, err := Detect(tr, DefaultConfig(), nil); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

// TestDetectUnsortedAnywhere puts one decreasing pair wherever the scan
// can meet it: the first pair, inside a stay, at the fix a window stops
// at, right after a MaxGap split and as the last pair. Visits found
// before the pair must not leak out with the error.
func TestDetectUnsortedAnywhere(t *testing.T) {
	stay := stationary(nil, at(0), 0, 10) // one visit, minutes 0..9
	cases := []struct {
		name string
		tr   trace.GPSTrace
	}{
		{"first pair", append(trace.GPSTrace{{T: 600, Loc: at(0)}}, stationary(nil, at(0), 0, 10)...)},
		{"inside a stay", func() trace.GPSTrace {
			tr := stationary(nil, at(0), 0, 10)
			tr[5].T = tr[4].T - 1
			return tr
		}()},
		{"window's stopping fix", append(stationary(nil, at(0), 0, 10),
			trace.GPSPoint{T: 8*60 + 30, Loc: at(2000)})},
		{"after a MaxGap split", append(stationary(nil, at(0), 0, 10),
			trace.GPSPoint{T: 35 * 60, Loc: at(0)}, trace.GPSPoint{T: 34 * 60, Loc: at(0)})},
		{"last pair", append(stationary(stationary(nil, at(0), 0, 10), at(2000), 11, 10),
			trace.GPSPoint{T: 19 * 60, Loc: at(2000)})},
	}
	if vs, err := Detect(stay, DefaultConfig(), nil); err != nil || len(vs) != 1 {
		t.Fatalf("ordered stay: %d visits, %v", len(vs), err)
	}
	for _, c := range cases {
		vs, err := Detect(c.tr, DefaultConfig(), nil)
		if err == nil || err.Error() != "visits: GPS trace not time-ordered" {
			t.Errorf("%s: error %v, want the time-order error", c.name, err)
		}
		if vs != nil {
			t.Errorf("%s: %d visits returned with the error", c.name, len(vs))
		}
	}
}

func TestDetectConfigValidation(t *testing.T) {
	bad := []Config{
		{MinDuration: 0, RoamRadius: 100, MaxGap: time.Minute},
		{MinDuration: time.Minute, RoamRadius: 0, MaxGap: time.Minute},
		{MinDuration: time.Minute, RoamRadius: 100, MaxGap: 0},
		{MinDuration: time.Minute, RoamRadius: 100, MaxGap: time.Minute, SnapRadius: -1},
	}
	for i, cfg := range bad {
		if _, err := Detect(nil, cfg, nil); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestDetectInvariants: detected visits are time-ordered, non-overlapping
// and each at least MinDuration long, for arbitrary traces.
func TestDetectInvariants(t *testing.T) {
	cfg := DefaultConfig()
	err := quick.Check(func(seed uint32) bool {
		s := rng.New(uint64(seed))
		var tr trace.GPSTrace
		tm := int64(0)
		loc := 0.0
		for i := 0; i < 200; i++ {
			tm += 30 + s.Int63n(240)
			if s.Bool(0.1) {
				loc += s.Range(-2000, 2000)
			} else {
				loc += s.Range(-20, 20)
			}
			tr = append(tr, trace.GPSPoint{T: tm, Loc: at(loc)})
		}
		vs, err := Detect(tr, cfg, nil)
		if err != nil {
			return false
		}
		for i, v := range vs {
			if v.Duration() < cfg.MinDuration {
				return false
			}
			if i > 0 && v.Start < vs[i-1].End {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpeedAt(t *testing.T) {
	// Constant 10 m/s east: fixes 600 m apart every minute.
	var tr trace.GPSTrace
	for m := int64(0); m < 10; m++ {
		tr = append(tr, trace.GPSPoint{T: m * 60, Loc: at(float64(m) * 600)})
	}
	spd, ok := SpeedAt(tr, 5*60+30, 6*time.Minute)
	if !ok {
		t.Fatal("no speed estimate")
	}
	if spd < 9.5 || spd > 10.5 {
		t.Errorf("speed %.2f m/s, want ~10", spd)
	}
}

func TestSpeedAtStationary(t *testing.T) {
	tr := stationary(nil, at(0), 0, 10)
	spd, ok := SpeedAt(tr, 300, 6*time.Minute)
	if !ok {
		t.Fatal("no estimate")
	}
	if spd > 0.1 {
		t.Errorf("stationary speed %.2f", spd)
	}
}

func TestSpeedAtGapTooLarge(t *testing.T) {
	tr := trace.GPSTrace{
		{T: 0, Loc: at(0)},
		{T: 3600, Loc: at(10000)},
	}
	if _, ok := SpeedAt(tr, 1800, 6*time.Minute); ok {
		t.Fatal("estimate across a 1-hour gap")
	}
}

func TestSpeedAtTooFewPoints(t *testing.T) {
	if _, ok := SpeedAt(trace.GPSTrace{{T: 0, Loc: at(0)}}, 0, time.Minute); ok {
		t.Fatal("estimate from one fix")
	}
}

func TestSegments(t *testing.T) {
	vs := []trace.Visit{
		{Start: 0, End: 600, Loc: at(0)},
		{Start: 1200, End: 1800, Loc: at(2000)},
		{Start: 50000, End: 50600, Loc: at(4000)}, // 13h gap: dropped
	}
	segs := Segments(vs, 10, 8*time.Hour)
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	if segs[0].Dur != 10*time.Minute {
		t.Errorf("dur %v, want 10m", segs[0].Dur)
	}
	if segs[0].Dist < 1990 || segs[0].Dist > 2010 {
		t.Errorf("dist %.1f, want ~2000", segs[0].Dist)
	}
}

func TestSegmentsMinDist(t *testing.T) {
	vs := []trace.Visit{
		{Start: 0, End: 600, Loc: at(0)},
		{Start: 1200, End: 1800, Loc: at(5)}, // 5 m apart: below minDist
	}
	if segs := Segments(vs, 10, 8*time.Hour); len(segs) != 0 {
		t.Fatalf("segments = %d, want 0", len(segs))
	}
}

func TestPauses(t *testing.T) {
	vs := []trace.Visit{
		{Start: 0, End: 600},
		{Start: 1200, End: 3000},
	}
	ps := Pauses(vs)
	if len(ps) != 2 || ps[0] != 10 || ps[1] != 30 {
		t.Fatalf("pauses = %v", ps)
	}
}

func TestIndoorFixesParticipate(t *testing.T) {
	// Indoor fixes (WiFi fallback) count toward stays like regular ones.
	var tr trace.GPSTrace
	for m := int64(0); m < 10; m++ {
		tr = append(tr, trace.GPSPoint{T: m * 60, Loc: at(0), Indoor: true})
	}
	vs, err := Detect(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("indoor-only stay not detected")
	}
}
