package visits

import (
	"math"
	"testing"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/trace"
)

// This file is the differential oracle for segmentation: a stay-point
// detector written straight from the definition — geo.Distance for every
// roam check, a brute-force nearest POI over the whole table, no grid,
// no certified bounds — compared visit by visit with Detect, on
// randomized traces in several cities and on adversarial cases placed
// exactly at the thresholds.

// naiveDetect scans forward from each anchor fix, extending the window
// while the next fix follows within MaxGap and lies within RoamRadius of
// the anchor. A window spanning at least MinDuration becomes a visit at
// the mean of its fixes, snapped to the lowest-index POI among the
// nearest ones within SnapRadius; otherwise the anchor moves on by one.
func naiveDetect(tr trace.GPSTrace, cfg Config, pois []poi.POI) []trace.Visit {
	var out []trace.Visit
	for i := 0; i < len(tr); {
		j := i
		for j+1 < len(tr) &&
			time.Duration(tr[j+1].T-tr[j].T)*time.Second <= cfg.MaxGap &&
			geo.Distance(tr[i].Loc, tr[j+1].Loc) <= cfg.RoamRadius {
			j++
		}
		if time.Duration(tr[j].T-tr[i].T)*time.Second < cfg.MinDuration {
			i++
			continue
		}
		v := trace.Visit{Start: tr[i].T, End: tr[j].T, Loc: naiveMean(tr[i : j+1]), POIID: -1}
		best := math.Inf(1)
		for _, p := range pois {
			if d := geo.Distance(v.Loc, p.Loc); d <= cfg.SnapRadius && d < best {
				best, v.POIID, v.Category = d, p.ID, p.Category
			}
		}
		out = append(out, v)
		i = j + 1
	}
	return out
}

func naiveMean(pts []trace.GPSPoint) geo.LatLon {
	var lat, lon float64
	for _, p := range pts {
		lat += p.Loc.Lat
		lon += p.Loc.Lon
	}
	return geo.LatLon{Lat: lat / float64(len(pts)), Lon: lon / float64(len(pts))}
}

// sameVisits reports the first difference between two visit lists,
// comparing Start, End, the bits of Loc, POIID and Category.
func sameVisits(t *testing.T, label string, got, want []trace.Visit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d visits, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End ||
			math.Float64bits(g.Loc.Lat) != math.Float64bits(w.Loc.Lat) ||
			math.Float64bits(g.Loc.Lon) != math.Float64bits(w.Loc.Lon) ||
			g.POIID != w.POIID || g.Category != w.Category {
			t.Fatalf("%s: visit %d = %+v, oracle %+v", label, i, g, w)
		}
	}
}

// checkOracle compares Detect with the oracle on one trace.
func checkOracle(t *testing.T, label string, tr trace.GPSTrace, cfg Config, pois []poi.POI) {
	t.Helper()
	var db *poi.DB
	if pois != nil {
		var err error
		if db, err = poi.NewDB(pois); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Detect(tr, cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	sameVisits(t, label, got, naiveDetect(tr, cfg, pois))
}

// onE7 rounds a point to the codec's E7 grid, as decoded traces are.
func onE7(p geo.LatLon) geo.LatLon {
	return geo.LatLon{Lat: float64(geo.E7(p.Lat)) / 1e7, Lon: float64(geo.E7(p.Lon)) / 1e7}
}

// cityPOIs scatters n POIs over a 3 km disk around center, every fifth
// one a duplicate of an earlier POI's coordinates with another category.
func cityPOIs(s *rng.Stream, center geo.LatLon, n int) []poi.POI {
	pois := make([]poi.POI, n)
	for i := range pois {
		loc := onE7(geo.Destination(center, s.Range(0, 360), s.Range(0, 3000)))
		if i > 0 && i%5 == 0 {
			loc = pois[s.Intn(i)].Loc
		}
		pois[i] = poi.POI{ID: i, Category: poi.Category(s.Intn(poi.NumCategories)), Loc: loc}
	}
	return pois
}

// cityTrace walks n fixes around center: mostly wobbles around a stay
// point, sometimes a jump to a new one, sometimes a silence exactly at,
// just past or well past MaxGap.
func cityTrace(s *rng.Stream, center geo.LatLon, n int) trace.GPSTrace {
	stay := geo.Destination(center, s.Range(0, 360), s.Range(0, 2500))
	tr := make(trace.GPSTrace, 0, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += 30 + s.Int63n(240)
		if s.Bool(0.05) {
			tm += []int64{600, 601, 1200}[s.Intn(3)] - 60
		}
		if s.Bool(0.08) {
			stay = geo.Destination(stay, s.Range(0, 360), s.Range(100, 2000))
			if geo.Distance(stay, center) > 3000 {
				stay = center
			}
		}
		loc := onE7(geo.Destination(stay, s.Range(0, 360), s.Range(0, 70)))
		tr = append(tr, trace.GPSPoint{T: tm, Loc: loc, Indoor: s.Bool(0.2)})
	}
	return tr
}

// TestDetectMatchesOracleRandom runs the oracle over randomized traces in
// a mid-latitude city, an arctic one, and one straddling the
// antimeridian (where POIs across the line are nearest to stays beside
// it).
func TestDetectMatchesOracleRandom(t *testing.T) {
	cities := []struct {
		name   string
		center geo.LatLon
	}{
		{"santa-barbara", geo.LatLon{Lat: 34.4208, Lon: -119.6982}},
		{"longyearbyen", geo.LatLon{Lat: 78.2232, Lon: 15.6267}},
		{"taveuni", geo.LatLon{Lat: -16.8, Lon: 180}},
	}
	cfg := DefaultConfig()
	for _, c := range cities {
		s := rng.New(20261016)
		pois := cityPOIs(s, c.center, 300)
		for trial := 0; trial < 12; trial++ {
			tr := cityTrace(s, c.center, 400)
			checkOracle(t, c.name, tr, cfg, pois)
		}
	}
}

// TestDetectMatchesOracleNearAntimeridian pins the cross-line snap: a
// stay just west of 180° whose only POIs lie just east of it.
func TestDetectMatchesOracleNearAntimeridian(t *testing.T) {
	stay := geo.LatLon{Lat: -16.8, Lon: 179.9995}
	pois := []poi.POI{
		{ID: 0, Category: poi.Food, Loc: geo.LatLon{Lat: -16.8, Lon: -179.9996}},
		{ID: 1, Category: poi.Shop, Loc: geo.LatLon{Lat: -16.8003, Lon: -179.9993}},
		{ID: 2, Category: poi.Arts, Loc: geo.LatLon{Lat: -16.81, Lon: -179.95}},
	}
	tr := stationary(nil, stay, 0, 10)
	checkOracle(t, "cross-line", tr, DefaultConfig(), pois)
	vs, err := Detect(tr, DefaultConfig(), mustDB(t, pois))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].POIID != 0 {
		t.Fatalf("stay beside the antimeridian snapped to %+v, want POI 0 across the line", vs)
	}
}

func mustDB(t *testing.T, pois []poi.POI) *poi.DB {
	t.Helper()
	db, err := poi.NewDB(pois)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// ulps returns x and its two floating-point neighbors.
func ulps(x float64) []float64 {
	return []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))}
}

// TestDetectMatchesOracleAtRoamRadius puts a fix exactly at the roam
// radius from the anchor, and one ulp either side of it.
func TestDetectMatchesOracleAtRoamRadius(t *testing.T) {
	for _, bearing := range []float64{0, 37, 90, 181, 270} {
		anchor := at(0)
		edge := onE7(geo.Destination(anchor, bearing, 100))
		tr := stationary(nil, anchor, 0, 4)
		tr = append(tr, trace.GPSPoint{T: 4 * 60, Loc: edge})
		tr = stationary(tr, anchor, 5, 4)
		for _, r := range ulps(geo.Distance(anchor, edge)) {
			cfg := DefaultConfig()
			cfg.RoamRadius = r
			checkOracle(t, "roam", tr, cfg, nil)
		}
	}
}

// TestDetectMatchesOracleAtSnapRadius puts the nearest POI exactly at the
// snap radius from a stay's centroid, and one ulp either side of it,
// with a second POI just beyond it in the table.
func TestDetectMatchesOracleAtSnapRadius(t *testing.T) {
	tr := stationary(nil, at(0), 0, 10)
	centroid := naiveMean(tr)
	for _, bearing := range []float64{0, 45, 90, 200} {
		near := onE7(geo.Destination(centroid, bearing, 150))
		pois := []poi.POI{
			{ID: 0, Category: poi.Food, Loc: onE7(geo.Destination(centroid, bearing+90, 150.5))},
			{ID: 1, Category: poi.Shop, Loc: near},
		}
		d := geo.Distance(centroid, near)
		for _, r := range ulps(d) {
			cfg := DefaultConfig()
			cfg.SnapRadius = r
			checkOracle(t, "snap", tr, cfg, pois)
		}
	}
}

// TestDetectMatchesOracleDuplicatePOIs: POIs sharing coordinates tie on
// distance; the lowest index must win, as in a scan of the table.
func TestDetectMatchesOracleDuplicatePOIs(t *testing.T) {
	loc := onE7(at(60))
	pois := []poi.POI{
		{ID: 0, Category: poi.Arts, Loc: onE7(at(3000))},
		{ID: 1, Category: poi.Food, Loc: loc},
		{ID: 2, Category: poi.Shop, Loc: loc},
		{ID: 3, Category: poi.College, Loc: loc},
	}
	tr := stationary(nil, at(0), 0, 10)
	checkOracle(t, "duplicates", tr, DefaultConfig(), pois)
	if vs := naiveDetect(tr, DefaultConfig(), pois); len(vs) != 1 || vs[0].POIID != 1 {
		t.Fatalf("oracle snapped to %+v, want POI 1", vs)
	}
}

// TestDetectMatchesOracleAtTimeThresholds: a gap of exactly MaxGap keeps
// a stay together and one second more splits it; a stay of exactly
// MinDuration is a visit and one second less is not.
func TestDetectMatchesOracleAtTimeThresholds(t *testing.T) {
	cfg := DefaultConfig()
	gap, minDur := int64(cfg.MaxGap/time.Second), int64(cfg.MinDuration/time.Second)
	for _, tc := range []struct {
		name   string
		tr     trace.GPSTrace
		visits int
	}{
		{"gap=MaxGap", trace.GPSTrace{{T: 0, Loc: at(0)}, {T: gap, Loc: at(0)}}, 1},
		{"gap=MaxGap+1", trace.GPSTrace{{T: 0, Loc: at(0)}, {T: gap + 1, Loc: at(0)}, {T: gap + 1 + minDur, Loc: at(5)}}, 1},
		{"dur=MinDuration", trace.GPSTrace{{T: 0, Loc: at(0)}, {T: minDur, Loc: at(0)}}, 1},
		{"dur=MinDuration-1", trace.GPSTrace{{T: 0, Loc: at(0)}, {T: minDur - 1, Loc: at(0)}}, 0},
	} {
		checkOracle(t, tc.name, tc.tr, cfg, nil)
		if vs := naiveDetect(tc.tr, cfg, nil); len(vs) != tc.visits {
			t.Fatalf("%s: oracle found %d visits, want %d", tc.name, len(vs), tc.visits)
		}
	}
}
