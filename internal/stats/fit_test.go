package stats

import (
	"math"
	"testing"
	"testing/quick"

	"geosocial/internal/rng"
)

func TestFitParetoRecovery(t *testing.T) {
	// Sample from a known Pareto and recover the shape by MLE.
	for _, alpha := range []float64{0.8, 1.5, 3.0} {
		s := rng.New(uint64(alpha * 100))
		xs := make([]float64, 50000)
		for i := range xs {
			xs[i] = s.Pareto(2, alpha)
		}
		fit, err := FitPareto(xs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Alpha-alpha)/alpha > 0.03 {
			t.Errorf("alpha = %g, recovered %g", alpha, fit.Alpha)
		}
		if fit.Xm != 2 {
			t.Errorf("xm = %g", fit.Xm)
		}
		if fit.N != len(xs) {
			t.Errorf("N = %d", fit.N)
		}
	}
}

func TestFitParetoErrors(t *testing.T) {
	if _, err := FitPareto([]float64{1, 2}, 0); err == nil {
		t.Error("xm=0 accepted")
	}
	if _, err := FitPareto([]float64{0.5}, 1); err == nil {
		t.Error("all-below-xm accepted")
	}
}

func TestParetoPDFIntegratesToOne(t *testing.T) {
	f := ParetoFit{Xm: 1, Alpha: 2}
	// Numeric integral over [1, 1000] should approach 1.
	sum := 0.0
	xs := LogSpace(1, 1000, 20000)
	for i := 0; i+1 < len(xs); i++ {
		mid := (xs[i] + xs[i+1]) / 2
		sum += f.PDF(mid) * (xs[i+1] - xs[i])
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("PDF integral = %g", sum)
	}
	if f.PDF(0.5) != 0 {
		t.Error("PDF below support not zero")
	}
}

func TestParetoCDFProperties(t *testing.T) {
	f := ParetoFit{Xm: 3, Alpha: 1.5}
	err := quick.Check(func(a, b float64) bool {
		a = math.Abs(a)
		b = math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ca, cb := f.CDF(a), f.CDF(b)
		return ca >= 0 && cb <= 1 && ca <= cb
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.CDF(3) != 0 {
		t.Errorf("CDF(xm) = %g", f.CDF(3))
	}
}

func TestParetoMean(t *testing.T) {
	if m := (ParetoFit{Xm: 1, Alpha: 3}).Mean(); !almostEq(m, 1.5, 1e-12) {
		t.Errorf("Mean = %g, want 1.5", m)
	}
	if m := (ParetoFit{Xm: 1, Alpha: 0.9}).Mean(); !math.IsInf(m, 1) {
		t.Errorf("Mean for alpha<=1 = %g, want +Inf", m)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// y = 2.5 * x^0.6 exactly.
	xs := LogSpace(0.1, 100, 50)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 * math.Pow(x, 0.6)
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.K, 2.5, 1e-6) || !almostEq(fit.Exp, 0.6, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestFitPowerLawNoisy(t *testing.T) {
	s := rng.New(9)
	xs := LogSpace(1, 1000, 300)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4 * math.Pow(x, -1.2) * math.Exp(s.Norm(0, 0.1))
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exp+1.2) > 0.05 {
		t.Errorf("Exp = %g, want ~-1.2", fit.Exp)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 2, 4}
	ys := []float64{5, 5, 3, 6, 12}
	if _, err := FitPowerLaw(xs, ys); err != nil {
		t.Fatalf("fit with some non-positive points failed: %v", err)
	}
	if _, err := FitPowerLaw([]float64{-1, 0}, []float64{1, 1}); err == nil {
		t.Error("all-non-positive xs accepted")
	}
}

func TestFitExponentialExact(t *testing.T) {
	xs := LinSpace(0, 10, 30)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 7 * math.Exp(-0.5*x)
	}
	fit, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.A, 7, 1e-6) || !almostEq(fit.Rate, -0.5, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if got := fit.Eval(2); !almostEq(got, 7*math.Exp(-1), 1e-6) {
		t.Errorf("Eval(2) = %g", got)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEq(fit.Eval(10), 21, 1e-12) {
		t.Errorf("Eval(10) = %g", fit.Eval(10))
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x variance accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFitParetoRoundTripProperty(t *testing.T) {
	// Property: fitting samples drawn from the fitted distribution
	// recovers the parameters (sample → fit → sample → fit stability).
	err := quick.Check(func(seed uint16, aRaw uint8) bool {
		alpha := 0.5 + float64(aRaw%40)/10 // 0.5 .. 4.4
		s := rng.New(uint64(seed) + 1)
		xs := make([]float64, 8000)
		for i := range xs {
			xs[i] = s.Pareto(1, alpha)
		}
		fit, err := FitPareto(xs, 1)
		if err != nil {
			return false
		}
		return math.Abs(fit.Alpha-alpha)/alpha < 0.15
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}
