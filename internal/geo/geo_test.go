package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// sb is downtown Santa Barbara, the paper's home turf.
var sb = LatLon{Lat: 34.4208, Lon: -119.6982}

func TestDistanceKnown(t *testing.T) {
	tests := []struct {
		name string
		a, b LatLon
		want float64 // meters
		tol  float64
	}{
		{"zero", sb, sb, 0, 0.001},
		{"LA-SF", LatLon{34.0522, -118.2437}, LatLon{37.7749, -122.4194}, 559000, 6000},
		{"1 deg lat at equator", LatLon{0, 0}, LatLon{1, 0}, 111195, 200},
		{"1 deg lon at equator", LatLon{0, 0}, LatLon{0, 1}, 111195, 200},
		{"antipodal-ish", LatLon{0, 0}, LatLon{0, 180}, math.Pi * EarthRadius, 2000},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Distance(tc.a, tc.b)
			if math.Abs(got-tc.want) > tc.tol {
				t.Errorf("Distance = %.1f, want %.1f +- %.1f", got, tc.want, tc.tol)
			}
		})
	}
}

func TestDistanceSymmetric(t *testing.T) {
	err := quick.Check(func(a, b LatLon) bool {
		a = clampPoint(a)
		b = clampPoint(b)
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceNonNegativeAndIdentity(t *testing.T) {
	err := quick.Check(func(a LatLon) bool {
		a = clampPoint(a)
		return Distance(a, a) < 1e-6 && Distance(a, LatLon{0, 0}) >= 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	err := quick.Check(func(a, b, c LatLon) bool {
		a, b, c = clampPoint(a), clampPoint(b), clampPoint(c)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	err := quick.Check(func(brRaw, distRaw uint32) bool {
		bearing := float64(brRaw % 360)
		dist := float64(distRaw%100000) + 1
		q := Destination(sb, bearing, dist)
		got := Distance(sb, q)
		return math.Abs(got-dist) < 0.01*dist+0.5
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterpolate(t *testing.T) {
	b := Destination(sb, 10, 5000)
	if got := Interpolate(sb, b, 0); got != sb {
		t.Errorf("Interpolate(,,0) = %v, want a", got)
	}
	if got := Interpolate(sb, b, 1); got != b {
		t.Errorf("Interpolate(,,1) = %v, want b", got)
	}
	half := Interpolate(sb, b, 0.5)
	if d := Distance(sb, half); math.Abs(d-2500) > 30 {
		t.Errorf("halfway distance %g, want ~2500", d)
	}
}

func TestValid(t *testing.T) {
	tests := []struct {
		p    LatLon
		want bool
	}{
		{LatLon{0, 0}, true},
		{LatLon{90, 180}, true},
		{LatLon{-90, -180}, true},
		{LatLon{91, 0}, false},
		{LatLon{0, 181}, false},
		{LatLon{math.NaN(), 0}, false},
	}
	for _, tc := range tests {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBBox(t *testing.T) {
	pts := []LatLon{{34.40, -119.70}, {34.45, -119.65}, {34.42, -119.72}}
	b := BoundsOf(pts)
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bbox does not contain %v", p)
		}
	}
	if b.Contains(LatLon{34.50, -119.70}) {
		t.Error("bbox contains point outside")
	}
}

func TestBoundsOfEmpty(t *testing.T) {
	if b := BoundsOf(nil); b != (BBox{}) {
		t.Errorf("BoundsOf(nil) = %+v, want zero", b)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(sb)
	err := quick.Check(func(dx, dy int16) bool {
		x := float64(dx) * 3 // up to ~100 km
		y := float64(dy) * 3
		p := pr.ToLatLon(x, y)
		gx, gy := pr.ToXY(p)
		return math.Abs(gx-x) < 0.01 && math.Abs(gy-y) < 0.01
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestProjectionDistanceConsistency(t *testing.T) {
	pr := NewProjection(sb)
	a := pr.ToLatLon(1000, 2000)
	b := pr.ToLatLon(-500, 700)
	planar := math.Hypot(1000-(-500), 2000-700)
	geod := Distance(a, b)
	if math.Abs(planar-geod)/geod > 0.01 {
		t.Errorf("projection distance %g vs geodesic %g", planar, geod)
	}
}

// clampPoint maps arbitrary quick-generated values into valid coordinates
// away from the poles (where bearings degenerate).
func clampPoint(p LatLon) LatLon {
	lat := math.Mod(math.Abs(p.Lat), 160) - 80
	lon := math.Mod(math.Abs(p.Lon), 360) - 180
	if math.IsNaN(lat) {
		lat = 0
	}
	if math.IsNaN(lon) {
		lon = 0
	}
	return LatLon{Lat: lat, Lon: lon}
}

func BenchmarkDistance(b *testing.B) {
	p := Destination(sb, 37, 1234)
	for i := 0; i < b.N; i++ {
		_ = Distance(sb, p)
	}
}
