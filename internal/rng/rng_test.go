package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("alpha")
	c2 := parent.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children produced %d/100 identical outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() *Stream { return New(99).Split("user-13") }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical split paths diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		ss += v * v
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean %g, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("Norm stddev %g, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean %g, want ~5", mean)
	}
}

func TestParetoSupport(t *testing.T) {
	s := New(8)
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2,1.5) below support: %g", v)
		}
	}
}

func TestParetoMean(t *testing.T) {
	s := New(9)
	const n = 500000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Pareto(1, 3)
	}
	// Mean of Pareto(1,3) is 1.5.
	if mean := sum / n; math.Abs(mean-1.5) > 0.02 {
		t.Fatalf("Pareto(1,3) mean %g, want ~1.5", mean)
	}
}

func TestTruncParetoBounds(t *testing.T) {
	s := New(10)
	for i := 0; i < 10000; i++ {
		v := s.TruncPareto(1, 1.2, 100)
		if v < 1 || v > 100 {
			t.Fatalf("TruncPareto out of [1,100]: %g", v)
		}
	}
}

func TestTruncParetoDegenerate(t *testing.T) {
	s := New(11)
	if v := s.TruncPareto(5, 2, 3); v != 5 {
		t.Fatalf("TruncPareto with max <= xm: got %g, want 5", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 4, 80} {
		s := New(13)
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%g) mean %g", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	s := New(14)
	if v := s.Poisson(-1); v != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", v)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(15)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if hits < 2200 || hits > 2800 {
		t.Fatalf("Bool(0.25) hit %d/10000", hits)
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		v := s.Range(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("Range(-3,9) out of bounds: %g", v)
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(18)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle lost elements: sum %d", sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Norm(0, 1)
	}
}
