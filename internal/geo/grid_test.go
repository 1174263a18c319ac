package geo

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"geosocial/internal/rng"
)

func randomPoints(n int, spreadMeters float64, seed uint64) []LatLon {
	s := rng.New(seed)
	pts := make([]LatLon, n)
	for i := range pts {
		pts[i] = Destination(sb, s.Range(0, 360), s.Range(0, spreadMeters))
	}
	return pts
}

func bruteWithin(pts []LatLon, q LatLon, radius float64) []int {
	var out []int
	for i, p := range pts {
		if Distance(q, p) <= radius {
			out = append(out, i)
		}
	}
	return out
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	pts := randomPoints(2000, 20000, 1)
	g := NewGridIndex(pts, 500)
	s := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		q := Destination(sb, s.Range(0, 360), s.Range(0, 22000))
		radius := s.Range(10, 3000)
		got := g.Within(q, radius, nil)
		want := bruteWithin(pts, q, radius)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d: got idx %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestGridWithinProperty(t *testing.T) {
	pts := randomPoints(300, 5000, 3)
	g := NewGridIndex(pts, 250)
	err := quick.Check(func(brRaw, distRaw, radRaw uint16) bool {
		q := Destination(sb, float64(brRaw%360), float64(distRaw%6000))
		radius := float64(radRaw%2000) + 1
		got := g.Within(q, radius, nil)
		want := bruteWithin(pts, q, radius)
		if len(got) != len(want) {
			return false
		}
		sort.Ints(got)
		sort.Ints(want)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// bruteNearestWithin is the definition NearestWithin must match: the
// lowest-index point at the smallest distance among those within maxDist.
func bruteNearestWithin(pts []LatLon, q LatLon, maxDist float64) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, p := range pts {
		if d := Distance(q, p); d <= maxDist && d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 10000, 4)
	g := NewGridIndex(pts, 400)
	s := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		q := Destination(sb, s.Range(0, 360), s.Range(0, 12000))
		for _, maxDist := range []float64{math.Inf(1), s.Range(50, 1500)} {
			gotIdx, gotDist := g.NearestWithin(q, maxDist)
			wantIdx, wantDist := bruteNearestWithin(pts, q, maxDist)
			if gotIdx != wantIdx || gotDist != wantDist {
				t.Fatalf("trial %d maxDist %g: nearest got (%d, %.3f), want (%d, %.3f)",
					trial, maxDist, gotIdx, gotDist, wantIdx, wantDist)
			}
		}
	}
}

func TestGridEmpty(t *testing.T) {
	g := NewGridIndex(nil, 500)
	if got := g.Within(sb, 1000, nil); len(got) != 0 {
		t.Errorf("Within on empty index returned %v", got)
	}
	for _, maxDist := range []float64{math.Inf(1), 1000} {
		idx, dist := g.NearestWithin(sb, maxDist)
		if idx != -1 || !math.IsInf(dist, 1) {
			t.Errorf("NearestWithin(%g) on empty index = (%d, %g)", maxDist, idx, dist)
		}
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGridIndex(randomPoints(10, 100, 6), 500)
	if got := g.Within(sb, -5, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestGridDefaultCell(t *testing.T) {
	g := NewGridIndex(randomPoints(10, 100, 7), 0)
	if g.cell != 500 {
		t.Errorf("default cell = %g, want 500", g.cell)
	}
}

func TestGridSinglePoint(t *testing.T) {
	g := NewGridIndex([]LatLon{sb}, 500)
	q := Destination(sb, 90, 12345)
	for _, maxDist := range []float64{math.Inf(1), 20000} {
		idx, dist := g.NearestWithin(q, maxDist)
		if idx != 0 {
			t.Fatalf("NearestWithin(%g) idx = %d, want 0", maxDist, idx)
		}
		if math.Abs(dist-12345) > 15 {
			t.Fatalf("NearestWithin(%g) dist = %g, want ~12345", maxDist, dist)
		}
	}
	if idx, dist := g.NearestWithin(q, 10000); idx != -1 || !math.IsInf(dist, 1) {
		t.Fatalf("NearestWithin(10000) = (%d, %g), want nothing within range", idx, dist)
	}
}

func TestGridLenAndPoint(t *testing.T) {
	pts := randomPoints(17, 1000, 8)
	g := NewGridIndex(pts, 500)
	if g.Len() != 17 {
		t.Fatalf("Len = %d, want 17", g.Len())
	}
	for i, p := range pts {
		if g.Point(i) != p {
			t.Fatalf("Point(%d) mismatch", i)
		}
	}
}

func BenchmarkGridWithin(b *testing.B) {
	pts := randomPoints(30000, 30000, 9)
	g := NewGridIndex(pts, 500)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(sb, 500, buf[:0])
	}
}

func BenchmarkBruteWithin(b *testing.B) {
	pts := randomPoints(30000, 30000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bruteWithin(pts, sb, 500)
	}
}
