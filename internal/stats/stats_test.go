package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("stddev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input")
	}
}

func TestErrorMetrics(t *testing.T) {
	xs := []float64{9, 11, 10, 10}
	if got := MAE(xs, 10); got != 0.5 {
		t.Fatalf("MAE = %v", got)
	}
	if got := RMSE(xs, 10); !close(got, math.Sqrt(0.5), 1e-12) {
		t.Fatalf("RMSE = %v", got)
	}
	if got := MAD(xs); got != 0.5 {
		t.Fatalf("MAD = %v", got)
	}
	if MAE(nil, 1) != 0 || RMSE(nil, 1) != 0 || MAD(nil) != 0 {
		t.Fatal("empty input")
	}
}

func TestGapsAndInterDeparture(t *testing.T) {
	ts := []float64{0, 10, 21, 30}
	g := Gaps(ts)
	want := []float64{10, 11, 9}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("gaps = %v", g)
		}
	}
	e := InterDepartureErrors(ts, 10)
	if !close(e.MAE, 2.0/3.0, 1e-12) {
		t.Fatalf("MAE = %v", e.MAE)
	}
	if e.RMSE <= e.MAE {
		t.Fatal("RMSE should exceed MAE for non-uniform errors")
	}
	if Gaps([]float64{1}) != nil {
		t.Fatal("single timestamp should give no gaps")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if sortedQuantile(xs, 0) != 1 || sortedQuantile(xs, 1) != 4 {
		t.Fatal("extremes")
	}
	if got := sortedQuantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

func TestStdNormalInv(t *testing.T) {
	// Standard reference points.
	cases := map[float64]float64{
		0.5:    0,
		0.8413: 1, // Phi(1) ~ 0.8413
		0.9772: 2,
		0.0228: -2,
		0.999:  3.0902,
	}
	for p, want := range cases {
		if got := StdNormalInv(p); !close(got, want, 5e-3) {
			t.Errorf("probit(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(StdNormalInv(0), -1) || !math.IsInf(StdNormalInv(1), 1) {
		t.Fatal("boundary behaviour")
	}
}

func TestStdNormalInvRoundTrip(t *testing.T) {
	// probit should invert the normal CDF: Phi(probit(p)) ~ p.
	phi := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	for p := 0.001; p < 1; p += 0.0173 {
		if got := phi(StdNormalInv(p)); !close(got, p, 1e-6) {
			t.Fatalf("Phi(probit(%v)) = %v", p, got)
		}
	}
}

func TestExponentialInvCDF(t *testing.T) {
	inv := ExponentialInvCDF(2)
	// median of Exp(2) is ln2/2.
	if got := inv(0.5); !close(got, math.Ln2/2, 1e-12) {
		t.Fatalf("median = %v", got)
	}
	if inv(0) != 0 {
		t.Fatal("inv(0) should be 0")
	}
	if !math.IsInf(inv(1), 1) {
		t.Fatal("inv(1) should be +Inf")
	}
}

func TestQQPerfectSample(t *testing.T) {
	// A sample drawn exactly from the theoretical quantiles must give
	// correlation ~1 and y~x.
	inv := NormalInvCDF(100, 15)
	var xs []float64
	for i := 0; i < 2000; i++ {
		xs = append(xs, inv((float64(i)+0.5)/2000))
	}
	pts := QQ(xs, inv, 50)
	if r := QQCorrelation(pts); r < 0.9999 {
		t.Fatalf("correlation = %v", r)
	}
	for _, p := range pts {
		if !close(p.Theoretical, p.Sample, 0.5) {
			t.Fatalf("QQ point off identity: %+v", p)
		}
	}
}

func TestQQDetectsMismatch(t *testing.T) {
	// Uniform sample against a normal theoretical distribution: the Q-Q
	// tails must deviate visibly even if correlation stays high.
	rng := rand.New(rand.NewSource(1))
	var xs []float64
	for i := 0; i < 5000; i++ {
		xs = append(xs, rng.Float64()*2-1)
	}
	pts := QQ(xs, NormalInvCDF(0, 1), 100)
	tail := pts[0]
	if close(tail.Theoretical, tail.Sample, 0.5) {
		t.Fatalf("uniform sample matched normal tail: %+v", tail)
	}
}

func TestQQCorrelationDegenerate(t *testing.T) {
	if !math.IsNaN(QQCorrelation(nil)) {
		t.Fatal("empty correlation should be NaN")
	}
	pts := []QQPoint{{1, 1}, {1, 2}}
	if !math.IsNaN(QQCorrelation(pts)) {
		t.Fatal("zero-variance theoretical should be NaN")
	}
}

// Property: RMSE >= MAE for any series and target (Jensen).
func TestRMSEGeqMAEProperty(t *testing.T) {
	f := func(raw []int8, target int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return RMSE(xs, float64(target))+1e-9 >= MAE(xs, float64(target))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := sortedQuantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
