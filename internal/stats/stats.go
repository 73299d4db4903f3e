// Package stats implements the statistics used by the paper's evaluation:
// the rate-control error metrics (MAE, MAD, RMSE over inter-departure
// times, §7.2), quantile/Q-Q machinery for the random-number-generation
// accuracy study (Fig. 13), and the inverse CDFs of the distributions
// HyperTester emulates on the data plane.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// MAE returns the mean absolute error of xs against a target value:
// mean(|x_i - target|). The paper computes it on inter-departure times
// against the configured interval.
func MAE(xs []float64, target float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Abs(x - target)
	}
	return s / float64(len(xs))
}

// MAD returns the mean absolute difference around the sample mean:
// mean(|x_i - mean(x)|).
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += math.Abs(x - m)
	}
	return s / float64(len(xs))
}

// RMSE returns the root mean squared error of xs against a target value.
func RMSE(xs []float64, target float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - target
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// RateErrors bundles the three §7.2 error metrics for one experiment.
type RateErrors struct {
	MAE, MAD, RMSE float64
}

// InterDepartureErrors computes the paper's rate-control error metrics from
// raw departure timestamps (ns) against the configured interval (ns).
func InterDepartureErrors(departNs []float64, intervalNs float64) RateErrors {
	gaps := Gaps(departNs)
	return RateErrors{
		MAE:  MAE(gaps, intervalNs),
		MAD:  MAD(gaps),
		RMSE: RMSE(gaps, intervalNs),
	}
}

// Gaps returns consecutive differences of a timestamp series.
func Gaps(ts []float64) []float64 {
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i] - ts[i-1]
	}
	return out
}

// sortedQuantile returns the q-quantile (0..1) of the sorted, non-empty s
// by linear interpolation.
func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// QQPoint is one point of a quantile-quantile plot.
type QQPoint struct {
	Theoretical float64
	Sample      float64
}

// QQ computes n Q-Q points of xs against a theoretical inverse CDF,
// evaluating both at the plotting positions (i-0.5)/n.
func QQ(xs []float64, invCDF func(p float64) float64, n int) []QQPoint {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	out := make([]QQPoint, 0, n)
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		out = append(out, QQPoint{Theoretical: invCDF(p), Sample: sortedQuantile(s, p)})
	}
	return out
}

// QQCorrelation returns the Pearson correlation between theoretical and
// sample quantiles — the standard scalar summary of Q-Q agreement.
func QQCorrelation(points []QQPoint) float64 {
	n := float64(len(points))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for _, p := range points {
		sx += p.Theoretical
		sy += p.Sample
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for _, p := range points {
		dx, dy := p.Theoretical-mx, p.Sample-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// NormalInvCDF returns the inverse CDF of N(mu, sigma) using the
// Acklam/Wichura-style rational approximation (|relative error| < 1.15e-9).
func NormalInvCDF(mu, sigma float64) func(p float64) float64 {
	return func(p float64) float64 { return mu + sigma*StdNormalInv(p) }
}

// StdNormalInv is the standard normal inverse CDF (probit function).
func StdNormalInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients from Peter Acklam's algorithm.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	return x
}

// ExponentialInvCDF returns the inverse CDF of Exp(rate).
func ExponentialInvCDF(rate float64) func(p float64) float64 {
	return func(p float64) float64 {
		if p >= 1 {
			return math.Inf(1)
		}
		return -math.Log(1-p) / rate
	}
}
