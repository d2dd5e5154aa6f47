package rng

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (n-1 denominator) of xs.
func Std(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// Percentile returns the q-th percentile (0..100) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 100 {
		return cp[len(cp)-1]
	}
	pos := q / 100 * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It panics if the lengths differ; it returns (0, mean(y)) for fewer than
// two points or degenerate x.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) {
		panic("rng: LinearFit length mismatch") //lint:allow panicpolicy length misuse mirrors built-in slice panic semantics
	}
	n := float64(len(x))
	if len(x) < 2 {
		return 0, Mean(y)
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 { //lint:allow floateq guards exactly-degenerate regression input (all x equal); any nonzero den is usable
		return 0, Mean(y)
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return
}

// ExpDecayFit fits y ≈ A·r^x (0 < r) by least squares in log space and
// returns (A, r). Non-positive y values are skipped; if fewer than two
// usable points remain it returns (mean(y), 1).
//
// Randomized-benchmarking analysis (internal/charac) uses this to recover
// the depolarizing parameter from sequence-fidelity decay curves.
func ExpDecayFit(x, y []float64) (amplitude, rate float64) {
	var fx, fy []float64
	for i := range x {
		if y[i] > 0 {
			fx = append(fx, x[i])
			fy = append(fy, math.Log(y[i]))
		}
	}
	if len(fx) < 2 {
		return Mean(y), 1
	}
	slope, intercept := LinearFit(fx, fy)
	return math.Exp(intercept), math.Exp(slope)
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: k successes out of n trials at confidence z (z = 1.96 for
// 95%, 3 for ~99.7%). Degenerate inputs (n <= 0) return (0, 1). The bounds
// are exactly 0 at k = 0 and exactly 1 at k = n. The computation is a fixed
// closed-form expression over two integers, so identical inputs produce
// bit-identical bounds on every run — the property windowed-LER snapshots
// rely on.
func WilsonInterval(k, n int64, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	margin := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - margin) / denom
	hi = (center + margin) / denom
	// At k = 0 (k = n) center and margin cancel exactly in real arithmetic
	// but leave a rounding residue in floating point.
	if k <= 0 || lo < 0 {
		lo = 0
	}
	if k >= n || hi > 1 {
		hi = 1
	}
	return lo, hi
}
