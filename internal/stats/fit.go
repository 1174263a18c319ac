package stats

import (
	"fmt"
	"math"
)

// ParetoFit holds the parameters of a Pareto (power-law tail)
// distribution: density alpha * xm^alpha / x^(alpha+1) for x >= xm.
type ParetoFit struct {
	Xm    float64 // scale (minimum)
	Alpha float64 // shape
	N     int     // sample size used for the fit
}

// PDF evaluates the fitted density at x (0 below Xm).
func (f ParetoFit) PDF(x float64) float64 {
	if x < f.Xm || f.Xm <= 0 || f.Alpha <= 0 {
		return 0
	}
	return f.Alpha * math.Pow(f.Xm, f.Alpha) / math.Pow(x, f.Alpha+1)
}

// CDF evaluates the fitted cumulative distribution at x.
func (f ParetoFit) CDF(x float64) float64 {
	if x < f.Xm {
		return 0
	}
	return 1 - math.Pow(f.Xm/x, f.Alpha)
}

// Mean returns the distribution mean (+Inf when Alpha <= 1).
func (f ParetoFit) Mean() float64 {
	if f.Alpha <= 1 {
		return math.Inf(1)
	}
	return f.Alpha * f.Xm / (f.Alpha - 1)
}

// String implements fmt.Stringer.
func (f ParetoFit) String() string {
	return fmt.Sprintf("Pareto(xm=%.4g, alpha=%.4g, n=%d)", f.Xm, f.Alpha, f.N)
}

// FitPareto computes the maximum-likelihood Pareto fit of xs with the
// scale fixed to xm (samples below xm are dropped). The MLE shape is
// n / sum(ln(x/xm)). It returns an error when fewer than two usable
// samples remain or xm is not positive.
func FitPareto(xs []float64, xm float64) (ParetoFit, error) {
	if xm <= 0 {
		return ParetoFit{}, fmt.Errorf("stats: FitPareto requires xm > 0, got %g", xm)
	}
	var sum float64
	n := 0
	for _, x := range xs {
		if x < xm {
			continue
		}
		sum += math.Log(x / xm)
		n++
	}
	if n < 2 || sum <= 0 {
		return ParetoFit{}, ErrInsufficientData
	}
	return ParetoFit{Xm: xm, Alpha: float64(n) / sum, N: n}, nil
}

// PowerLawFit holds the parameters of the relation y = K * x^Exp, fitted
// by least squares in log-log space. The paper fits movement time against
// movement distance this way: t = k * d^(1-rho) (Figure 7b).
type PowerLawFit struct {
	K   float64 // multiplicative constant
	Exp float64 // exponent
	R2  float64 // coefficient of determination in log space
	N   int
}

// Eval evaluates the fitted relation at x.
func (f PowerLawFit) Eval(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return f.K * math.Pow(x, f.Exp)
}

// String implements fmt.Stringer.
func (f PowerLawFit) String() string {
	return fmt.Sprintf("PowerLaw(k=%.4g, exp=%.4g, r2=%.3f, n=%d)", f.K, f.Exp, f.R2, f.N)
}

// FitPowerLaw fits y = K * x^Exp over the positive pairs of (xs, ys) by
// ordinary least squares on (ln x, ln y).
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) {
	if len(xs) != len(ys) {
		return PowerLawFit{}, fmt.Errorf("stats: FitPowerLaw length mismatch %d != %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return PowerLawFit{}, ErrInsufficientData
	}
	slope, intercept, r2, err := linearLSQ(lx, ly)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{K: math.Exp(intercept), Exp: slope, R2: r2, N: len(lx)}, nil
}

// ExpFit holds the parameters of y = A * exp(Rate * x), fitted by least
// squares on (x, ln y).
type ExpFit struct {
	A    float64
	Rate float64
	R2   float64
	N    int
}

// Eval evaluates the fitted relation at x.
func (f ExpFit) Eval(x float64) float64 { return f.A * math.Exp(f.Rate*x) }

// FitExponential fits y = A * exp(Rate*x) over pairs with positive y.
func FitExponential(xs, ys []float64) (ExpFit, error) {
	if len(xs) != len(ys) {
		return ExpFit{}, fmt.Errorf("stats: FitExponential length mismatch %d != %d", len(xs), len(ys))
	}
	var fx, fy []float64
	for i := range xs {
		if ys[i] > 0 {
			fx = append(fx, xs[i])
			fy = append(fy, math.Log(ys[i]))
		}
	}
	if len(fx) < 2 {
		return ExpFit{}, ErrInsufficientData
	}
	slope, intercept, r2, err := linearLSQ(fx, fy)
	if err != nil {
		return ExpFit{}, err
	}
	return ExpFit{A: math.Exp(intercept), Rate: slope, R2: r2, N: len(fx)}, nil
}

// LinearFit holds the parameters of y = Intercept + Slope*x.
type LinearFit struct {
	Slope, Intercept, R2 float64
	N                    int
}

// Eval evaluates the fitted relation at x.
func (f LinearFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }

// FitLinear fits y = a + b*x by ordinary least squares.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch %d != %d", len(xs), len(ys))
	}
	slope, intercept, r2, err := linearLSQ(xs, ys)
	if err != nil {
		return LinearFit{}, err
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}

// linearLSQ computes the OLS slope, intercept and R^2 of ys on xs.
func linearLSQ(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, ErrInsufficientData
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("stats: degenerate fit (zero x variance)")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2, nil
}
