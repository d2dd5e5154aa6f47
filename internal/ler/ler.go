// Package ler implements the logical-error-rate model of the paper's
// Eq. (4), LER(d, p) = α · (p/p_th)^((d+1)/2), the calibration of its
// parameters (α, p_th) against this repository's own Monte-Carlo
// simulations, retry-risk accounting, and LER-versus-time trajectories
// under error drift and code deformation (the Fig. 10 machinery).
//
// Monte-Carlo sampling cannot reach the per-cycle rates of d ≥ 11 codes
// (1e-9 and below), so — exactly like the paper's evaluation — large
// distances are evaluated analytically, but with the model anchored to
// measured small-distance points so the analytic layer inherits the
// simulated substrate's behaviour.
package ler

import (
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"fmt"
	"math"
)

// Model is the two-parameter LER law of Eq. (4).
type Model struct {
	Alpha float64 // code-family prefactor (≈0.03 for the rotated code)
	Pth   float64 // physical threshold (≈0.01 circuit-level)
}

// PaperModel returns the constants the paper quotes (§5.2).
func PaperModel() Model { return Model{Alpha: noise.Alpha, Pth: noise.Threshold} }

// PerCycle returns the logical error rate per QEC cycle of a distance-d
// patch at physical rate p, clamped to [0, 1].
func (m Model) PerCycle(d int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	l := m.Alpha * math.Pow(p/m.Pth, float64(d+1)/2)
	if l > 1 {
		return 1
	}
	return l
}

// PTarget inverts PerCycle: the physical rate at which a distance-d patch
// hits the target per-cycle LER.
func (m Model) PTarget(d int, lerTar float64) float64 {
	return m.Pth * math.Pow(lerTar/m.Alpha, 2/float64(d+1))
}

// Point is one Monte-Carlo measurement used for fitting.
type Point struct {
	D   int
	P   float64 // physical error rate of the run
	LER float64 // measured per-cycle logical error rate
}

// Fit calibrates (α, p_th) to Monte-Carlo points by linear regression in
// log space: log LER_i − x_i·log p_i = log α − x_i·log p_th with
// x_i = (d_i+1)/2. At least two points with distinct distances are needed.
func Fit(points []Point) (Model, error) {
	var xs, ys []float64
	seen := map[int]bool{}
	for _, pt := range points {
		if pt.LER <= 0 || pt.P <= 0 {
			continue
		}
		x := float64(pt.D+1) / 2
		xs = append(xs, x)
		ys = append(ys, math.Log(pt.LER)-x*math.Log(pt.P))
		seen[pt.D] = true
	}
	if len(xs) < 2 || len(seen) < 2 {
		return Model{}, fmt.Errorf("ler: need ≥ 2 usable points across ≥ 2 distances, have %d/%d", len(xs), len(seen))
	}
	slope, intercept := rng.LinearFit(xs, ys)
	m := Model{Alpha: math.Exp(intercept), Pth: math.Exp(-slope)}
	if !(m.Pth > 0) || math.IsInf(m.Alpha, 0) {
		return Model{}, fmt.Errorf("ler: degenerate fit α=%g p_th=%g", m.Alpha, m.Pth)
	}
	return m, nil
}

// RetryRisk converts a per-cycle LER history into the probability that at
// least one uncorrectable logical error struck during the run (§7.1: "LER
// multiplied with the total number of logical operations", computed here
// without the small-risk linearization so values near 1 stay meaningful).
//
// lerPerCycle is sampled at uniform steps covering totalCycles cycles.
func RetryRisk(lerPerCycle []float64, totalCycles float64) float64 {
	if len(lerPerCycle) == 0 || totalCycles <= 0 {
		return 0
	}
	cyclesPerSample := totalCycles / float64(len(lerPerCycle))
	logSurvive := 0.0
	for _, l := range lerPerCycle {
		if l >= 1 {
			return 1
		}
		logSurvive += cyclesPerSample * math.Log1p(-l)
	}
	return 1 - math.Exp(logSurvive)
}

// RiskFromOps is the paper's headline retry-risk formula: per-logical-
// operation failure probability times operation count, saturated at 1.
func RiskFromOps(lerPerOp float64, ops float64) float64 {
	if lerPerOp <= 0 || ops <= 0 {
		return 0
	}
	r := 1 - math.Exp(ops*math.Log1p(-math.Min(lerPerOp, 1)))
	if r > 1 {
		return 1
	}
	return r
}

// TrajectoryPoint is one sample of a Fig. 10-style LER time series.
type TrajectoryPoint struct {
	Hours float64
	P     float64 // effective physical error rate at this time
	D     int     // effective code distance at this time
	LER   float64
}

// Trajectory evaluates the LER over time for a time-varying physical rate
// and distance (both supplied as step functions via callbacks), sampling
// every stepHours up to horizonHours.
func Trajectory(m Model, horizonHours, stepHours float64, pAt func(t float64) float64, dAt func(t float64) int) []TrajectoryPoint {
	var out []TrajectoryPoint
	for t := 0.0; t <= horizonHours+1e-9; t += stepHours {
		p := pAt(t)
		d := dAt(t)
		out = append(out, TrajectoryPoint{Hours: t, P: p, D: d, LER: m.PerCycle(d, p)})
	}
	return out
}
