package geo

import (
	"math"
	"math/rand"
	"testing"
)

// randE7LatLon returns a point on the E7 grid inside a band around the
// given center, mirroring coordinates that went through the binary
// codec.
func randE7LatLon(r *rand.Rand, center LatLon, spanDeg float64) LatLon {
	lat := center.Lat + (r.Float64()*2-1)*spanDeg
	lon := center.Lon + (r.Float64()*2-1)*spanDeg
	return LatLon{Lat: fromE7grid(lat), Lon: fromE7grid(wrapLon(lon))}
}

// wrapLon maps a longitude into [-180, 180).
func wrapLon(lon float64) float64 {
	for lon >= 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

func fromE7grid(deg float64) float64 { return float64(E7(deg)) / 1e7 }

// TestDistBoundsSandwich is the property test behind the prefilter's
// correctness claim: for random E7 coordinate pairs — city-scale,
// continental, polar, across the antimeridian and adversarially
// co-located — the certified bounds sandwich the haversine distance, and
// every threshold decision taken through the fast paths
// (Disk.Contains, DistBounds, MaxE7LatDiff, e7Box) is identical to
// comparing Distance directly, at every α in the sweep including radii
// placed exactly at and one ulp around the true distance.
func TestDistBoundsSandwich(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	centers := []struct {
		c    LatLon
		span float64
	}{
		{LatLon{Lat: 40.74, Lon: -73.99}, 0.02}, // city blocks
		{LatLon{Lat: 40.74, Lon: -73.99}, 0.3},  // metro area
		{LatLon{Lat: -33.87, Lon: 151.21}, 0.1}, // southern hemisphere
		{LatLon{Lat: 64.15, Lon: -21.94}, 0.2},  // high latitude
		{LatLon{Lat: 0.0, Lon: 0.0}, 0.1},       // equator
		{LatLon{Lat: 35.0, Lon: 139.0}, 5.0},    // continental
		{LatLon{Lat: 0.01, Lon: -179.99}, 0.05}, // near the antimeridian
		{LatLon{Lat: -16.8, Lon: 180}, 0.02},    // straddling the antimeridian
		{LatLon{Lat: 78.22, Lon: 15.65}, 0.05},  // arctic
		{LatLon{Lat: 89.995, Lon: 0}, 0.004},    // at the pole
	}
	alphas := []float64{25, 100, 150, 500, 1500, 5000, 50000}
	checked := 0
	for _, c := range centers {
		for i := 0; i < 4000; i++ {
			a := randE7LatLon(r, c.c, c.span)
			b := randE7LatLon(r, c.c, c.span)
			switch i % 17 {
			case 0:
				b = a // exact co-location must never be rejected
			case 1:
				// A few meters apart: Distance's own absolute rounding
				// is largest relative to such short separations.
				b = LatLon{
					Lat: fromE7grid(a.Lat + float64(r.Intn(401)-200)*1e-7),
					Lon: fromE7grid(a.Lon + float64(r.Intn(401)-200)*1e-7),
				}
			}
			d := Distance(a, b)
			cosA, cosB := CosLat(a), CosLat(b)

			lb, ub := DistBounds(a, b, cosA*cosB)
			if lb > d {
				t.Fatalf("lower bound %v exceeds Distance %v for %v %v", lb, d, a, b)
			}
			if !math.IsInf(ub, 1) && ub < d {
				t.Fatalf("upper bound %v below Distance %v for %v %v", ub, d, a, b)
			}

			// Sweep fixed radii plus radii pinned to the decision
			// boundary: d itself and one ulp to either side.
			sweep := append(append([]float64{}, alphas...),
				d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
			for _, alpha := range sweep {
				want := d <= alpha
				rt := NewRadiusTest(alpha)
				disk := rt.Around(a)
				if got := disk.Contains(b); got != want {
					t.Fatalf("RadiusTest(%g).Around(%v).Contains(%v) = %v, Distance %v says %v", alpha, a, b, got, d, want)
				}
				// Integer bounding-box prefilters: a rejection must imply
				// the haversine rejects too.
				dE7 := E7(a.Lat) - E7(b.Lat)
				if dE7 < 0 {
					dE7 = -dE7
				}
				if dE7 > MaxE7LatDiff(alpha) && want {
					t.Fatalf("E7 prefilter rejects pair at distance %v within α=%g (ΔlatE7=%d)", d, alpha, dE7)
				}
				box := newE7Box(a, cosA, alpha)
				if box.rejects(E7(b.Lat), E7(b.Lon)) && want {
					t.Fatalf("E7 box %+v rejects %v at distance %v within α=%g of %v", box, b, d, alpha, a)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("property sweep ran no checks")
	}
}

// TestGridIndexMatchesBruteForce cross-checks the optimized grid (SoA
// storage, integer and certified prefilters) against brute-force scans
// of Distance, for Within and NearestWithin, over random point sets and
// radii.
func TestGridIndexMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	center := LatLon{Lat: 40.74, Lon: -73.99}
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(300)
		pts := make([]LatLon, n)
		for i := range pts {
			pts[i] = randE7LatLon(r, center, 0.05)
		}
		cell := []float64{50, 250, 500, 2000}[trial%4]
		g := NewGridIndex(pts, cell)
		for q := 0; q < 40; q++ {
			query := randE7LatLon(r, center, 0.06)
			radius := r.Float64() * 3000

			got := g.Within(query, radius, nil)
			inGot := make(map[int]bool, len(got))
			for _, i := range got {
				inGot[i] = true
			}
			for i, p := range pts {
				// The grid's documented planar prefilter can exclude a
				// point the haversine accepts only outside radius+cell
				// planar distance; within the scanned cells the accept
				// set must match Distance exactly. Check one direction
				// strictly (no false positives) and spot the other via
				// NearestWithin below.
				if inGot[i] && Distance(query, p) > radius {
					t.Fatalf("Within returned point %d at distance %v > radius %v", i, Distance(query, p), radius)
				}
				if !inGot[i] && Distance(query, p) <= radius {
					// Must only happen when the legacy planar prefilter
					// would also have excluded it.
					x1, y1 := g.proj.ToXY(query)
					x2, y2 := g.proj.ToXY(p)
					dx, dy := x2-x1, y2-y1
					if dx*dx+dy*dy <= (radius+cell)*(radius+cell) {
						t.Fatalf("Within missed point %d at distance %v <= radius %v", i, Distance(query, p), radius)
					}
				}
			}

			for _, maxDist := range []float64{math.Inf(1), radius} {
				bi, bd := g.NearestWithin(query, maxDist)
				wantI, wantD := bruteNearestWithin(pts, query, maxDist)
				if bi != wantI || bd != wantD {
					t.Fatalf("NearestWithin(%g) = (%d, %v), brute force says (%d, %v)", maxDist, bi, bd, wantI, wantD)
				}
			}
		}
	}
}

// TestE7BoxEdge puts points at exactly the box's radius, mostly due east
// or west where the longitude bound is tightest, and requires the box
// never to reject a point the haversine accepts.
func TestE7BoxEdge(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	centers := []LatLon{
		{Lat: 34.42, Lon: -119.70}, {Lat: 78.22, Lon: 15.63}, {Lat: -16.8, Lon: 179.9995},
		{Lat: 0, Lon: 0}, {Lat: -60, Lon: 30},
	}
	radii := []float64{25, 100, 150, 500, 5000}
	for _, c := range centers {
		for i := 0; i < 4000; i++ {
			a := randE7LatLon(r, c, 0.01)
			bearing := 90 + 180*float64(i%2) + r.Float64()*20 - 10
			p := Destination(a, bearing, radii[i%len(radii)])
			b := LatLon{Lat: fromE7grid(p.Lat), Lon: fromE7grid(wrapLon(p.Lon))}
			d := Distance(a, b)
			for _, alpha := range []float64{d, math.Nextafter(d, math.Inf(1))} {
				box := newE7Box(a, CosLat(a), alpha)
				if box.rejects(E7(b.Lat), E7(b.Lon)) {
					t.Fatalf("box %+v around %v rejects %v at distance %v <= %v", box, a, b, d, alpha)
				}
			}
		}
	}
}
