package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Error("different seeds gave same first output")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("split children correlate")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		got := float64(c) / n
		if math.Abs(got-1.0/7) > 0.01 {
			t.Errorf("Intn(7)=%d frequency %.4f, want ~0.143", v, got)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Errorf("normal mean %.4f", m)
	}
	if s := Std(xs); math.Abs(s-1) > 0.02 {
		t.Errorf("normal std %.4f", s)
	}
}

func TestLogNormalFromMean(t *testing.T) {
	r := New(9)
	xs := make([]float64, 80000)
	for i := range xs {
		xs[i] = r.LogNormalFromMean(14.08, 0.55)
	}
	m := Mean(xs)
	if math.Abs(m-14.08) > 0.25 {
		t.Errorf("log-normal mean %.3f, want 14.08", m)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Fatal("log-normal produced non-positive value")
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(13)
	// Exact path (small n) and approximate path (large n·p).
	for _, c := range []struct {
		n int
		p float64
	}{{40, 0.3}, {5000, 0.2}} {
		sum := 0.0
		const trials = 3000
		for i := 0; i < trials; i++ {
			sum += float64(r.Binomial(c.n, c.p))
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("Binomial(%d,%.2f) mean %.2f, want %.2f", c.n, c.p, mean, want)
		}
	}
	if New(1).Binomial(10, 0) != 0 || New(1).Binomial(10, 1) != 10 {
		t.Error("degenerate binomial wrong")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Error("mean")
	}
	if math.Abs(Std(xs)-math.Sqrt(2.5)) > 1e-12 {
		t.Error("std")
	}
	if Percentile(xs, 50) != 3 {
		t.Error("median")
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extremes")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	s, b := LinearFit(x, y)
	if math.Abs(s-2) > 1e-12 || math.Abs(b-1) > 1e-12 {
		t.Errorf("fit %.3f, %.3f", s, b)
	}
}

func TestExpDecayFit(t *testing.T) {
	// y = 0.5 · 0.99^x
	var x, y []float64
	for _, m := range []float64{1, 10, 50, 100, 200} {
		x = append(x, m)
		y = append(y, 0.5*math.Pow(0.99, m))
	}
	a, r := ExpDecayFit(x, y)
	if math.Abs(a-0.5) > 1e-6 || math.Abs(r-0.99) > 1e-9 {
		t.Errorf("ExpDecayFit = %.6f, %.6f", a, r)
	}
}

// TestWilsonInterval: the interval brackets the observed rate, has the
// textbook width, tightens with n, and is exactly [0, ·] at k = 0 and
// exactly [·, 1] at k = n for every n.
func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("degenerate n=0: [%g, %g]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 1000, 1.96)
	if lo >= 0.05 || hi <= 0.05 {
		t.Errorf("[%.4f, %.4f] should bracket 0.05", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100, 1.96)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Errorf("0/100 interval [%g, %g], want [0, 0.01..0.1]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 100, 1.96)
	// ~95% interval at p=0.5, n=100 is roughly ±0.1.
	if lo < 0.35 || lo > 0.45 || hi < 0.55 || hi > 0.65 {
		t.Errorf("50/100 interval [%g, %g] has the wrong width", lo, hi)
	}
	// Monotone in n: more samples tighten the interval.
	lo2, hi2 := WilsonInterval(500, 1000, 1.96)
	if hi2-lo2 >= hi-lo {
		t.Errorf("interval did not tighten with n: %g vs %g", hi2-lo2, hi-lo)
	}
	for _, z := range []float64{1.96, 3} {
		for n := int64(1); n <= 20000; n++ {
			if lo, hi := WilsonInterval(0, n, z); lo != 0 || hi <= 0 || hi >= 1 {
				t.Fatalf("z=%g: 0/%d interval [%g, %g], want lower bound exactly 0", z, n, lo, hi)
			}
			if lo, hi := WilsonInterval(n, n, z); hi != 1 || lo <= 0 || lo >= 1 {
				t.Fatalf("z=%g: %d/%d interval [%g, %g], want upper bound exactly 1", z, n, n, lo, hi)
			}
		}
	}
}

func TestNormInv(t *testing.T) {
	// Round-trip against the CDF at several quantiles.
	for _, p := range []float64{1e-9, 0.001, 0.025, 0.5, 0.84, 0.999, 1 - 1e-9} {
		x := NormInv(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-10*math.Max(1, 1/p) && math.Abs(back-p) > 1e-12 {
			t.Errorf("NormInv(%.3g) = %.6f, CDF back = %.6g", p, x, back)
		}
	}
	if math.Abs(NormInv(0.5)) > 1e-12 {
		t.Error("median not 0")
	}
	if math.Abs(NormInv(0.975)-1.959964) > 1e-4 {
		t.Errorf("z(0.975) = %.5f", NormInv(0.975))
	}
}

func TestMinOfLogNormals(t *testing.T) {
	r := New(17)
	// The min of n samples must be stochastically far below the median.
	const n = 2000
	var mins []float64
	for i := 0; i < 300; i++ {
		mins = append(mins, r.MinOfLogNormals(n, 2.5, 0.55))
	}
	med := math.Exp(2.5)
	if Mean(mins) > med/3 {
		t.Errorf("min of %d log-normals averages %.3f, should be far below the median %.3f", n, Mean(mins), med)
	}
	// Compare against brute force.
	brute := math.Inf(1)
	for i := 0; i < n; i++ {
		if v := r.LogNormal(2.5, 0.55); v < brute {
			brute = v
		}
	}
	if Mean(mins) > brute*10 || Mean(mins) < brute/10 {
		t.Errorf("order-statistic min %.3f vs brute-force min %.3f differ wildly", Mean(mins), brute)
	}
}

func TestBernoulliMaskEdges(t *testing.T) {
	r := New(1)
	if r.Bernoulli(0) || !r.Bernoulli(1) {
		t.Error("Bernoulli edge cases")
	}
}
