// The pin holds where it was taken: amd64 at the default GOAMD64 (v1).
// Later microarchitecture levels and other targets may fuse
// multiply-adds, which changes the last bits of both functions.
//
//go:build amd64 && !amd64.v2

package geo

import (
	"math"
	"math/rand"
	"testing"
)

// referenceDestination is Destination as it was before its sines and
// cosines were shared: every trigonometric call evaluated in place.
func referenceDestination(p LatLon, bearingDeg, dist float64) LatLon {
	ad := dist / EarthRadius
	br := deg2rad(bearingDeg)
	lat1 := deg2rad(p.Lat)
	lon1 := deg2rad(p.Lon)
	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(br)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(br) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)
	out := LatLon{Lat: rad2deg(lat2), Lon: rad2deg(lon2)}
	for out.Lon > 180 {
		out.Lon -= 360
	}
	for out.Lon < -180 {
		out.Lon += 360
	}
	return out
}

// TestDestinationMatchesReference pins Destination to the bits of the
// in-place evaluation, over random starts plus the poles and the
// antimeridian, distances from -50 km to 50 km including zero, and the
// bearings 0, -0 and 90 (the generator's) as well as random ones.
func TestDestinationMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	starts := []LatLon{
		sb, {90, 0}, {-90, 0}, {90, 123.4}, {-90, -57.9},
		{0, 180}, {0, -180}, {45, 179.9999999}, {-45, -179.9999999},
		{89.9999999, 180}, {-89.9999999, -180}, {0, 0},
	}
	for i := 0; i < 500; i++ {
		starts = append(starts, LatLon{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180})
	}
	dists := []float64{0, math.Copysign(0, -1), 1e-9, -1e-9, 50000, -50000}
	for i := 0; i < 20; i++ {
		dists = append(dists, r.Float64()*100000-50000, r.NormFloat64()*10)
	}
	bearings := []float64{0, math.Copysign(0, -1), 90, -90, 180, 270, 360, 450, -360}
	for i := 0; i < 10; i++ {
		bearings = append(bearings, r.Float64()*360, r.Float64()*720-360)
	}
	same := func(a, b LatLon) bool {
		return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) &&
			math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
	}
	n := 0
	for _, p := range starts {
		for _, d := range dists {
			for _, br := range bearings {
				got, want := Destination(p, br, d), referenceDestination(p, br, d)
				if !same(got, want) {
					t.Fatalf("Destination(%v, %v, %v) = %v (%x, %x), reference %v (%x, %x)",
						p, br, d, got, math.Float64bits(got.Lat), math.Float64bits(got.Lon),
						want, math.Float64bits(want.Lat), math.Float64bits(want.Lon))
				}
				n++
			}
		}
	}
	t.Logf("%d destinations bit-identical", n)
}
