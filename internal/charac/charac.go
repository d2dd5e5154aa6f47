// Package charac implements CaliQEC's preparation-time device
// characterization (paper §4). It estimates, for every calibratable gate:
//
//   - T_cali, the calibration duration, by timing repeated calibrations;
//   - T_drift, the drift time constant, by simulated hourly interleaved
//     randomized benchmarking (the paper's protocol: three test sets with
//     sequence lengths [1,10,20,50,100,150,250,400]) followed by a fit of
//     the exponential drift law p(g,t) = p0·10^(t/T_drift);
//   - nbr(g), the calibration-crosstalk neighbourhood, by the Fig. 6 probe:
//     prepare nearby qubits in random states, run the calibration, and flag
//     qubits whose readback deviates beyond threshold.
//
// The device's ground-truth parameters are hidden from the estimators; the
// test suite verifies the estimates converge to the truth.
package charac

import (
	"caliqec/internal/device"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"math"
	"sort"
)

// RBLengths is the paper's interleaved-RB sequence-length schedule.
var RBLengths = []int{1, 10, 20, 50, 100, 150, 250, 400}

// RBSets is the number of repeated test sets per measurement.
const RBSets = 3

// RBShots is the number of shots per sequence length per set.
const RBShots = 400

// InterleavedRB simulates one interleaved-randomized-benchmarking estimate
// of a gate whose true depolarizing error rate is trueErr. The survival
// probability of an m-long interleaved sequence decays as
// A·r^m + B with r = 1 − 2p (single-qubit convention, B = A = 1/2);
// binomial shot noise is added and the decay refit, returning the estimated
// error rate.
func InterleavedRB(trueErr float64, lengths []int, shots int, r *rng.RNG) float64 {
	rTrue := 1 - 2*trueErr
	if rTrue < 0 {
		rTrue = 0
	}
	// Points whose decay has sunk into the binomial shot-noise floor bias a
	// log-space fit; keep only those at least several sigma above it.
	floor := 4 / math.Sqrt(float64(shots))
	var xs, ys []float64
	for set := 0; set < RBSets; set++ {
		for _, m := range lengths {
			f := 0.5 + 0.5*math.Pow(rTrue, float64(m))
			k := r.Binomial(shots, f)
			meas := float64(k) / float64(shots)
			dec := 2*meas - 1
			if dec > floor {
				xs = append(xs, float64(m))
				ys = append(ys, dec)
			}
		}
	}
	if len(xs) < 3 {
		return 0.5 // fully depolarized: no decay signal survives
	}
	_, rate := rng.ExpDecayFit(xs, ys)
	p := (1 - rate) / 2
	if p < 0 {
		p = 0
	}
	return p
}

// horizonHours is the drift-measurement window: EstimateDrift measures
// every hour from 0 to horizonHours inclusive.
const horizonHours = 12

// caliTimingJitter is the relative measurement error on calibration
// durations.
const caliTimingJitter = 0.05

// EstimateDrift performs hourly interleaved-RB measurements of a gate over
// horizonHours and fits the exponential drift law, returning the estimated
// drift parameters.
func EstimateDrift(dev *device.Device, gateID int, r *rng.RNG) noise.Drift {
	g := dev.Gate(gateID)
	var ts, logps []float64
	for h := 0; h <= horizonHours; h++ {
		t := float64(h)
		est := InterleavedRB(g.ErrorRate(t), RBLengths, RBShots, r)
		// Above a few percent the RB decay saturates within one sequence
		// length and the estimate is no longer quantitative; exclude such
		// hours from the drift fit.
		if est > 0 && est < 0.03 {
			ts = append(ts, t)
			logps = append(logps, math.Log10(est))
		}
	}
	if len(ts) < 2 {
		// Too noisy to fit: fall back to a pessimistic fast drift.
		return noise.Drift{P0: noise.InitialErrorRate, TDrift: 1}
	}
	slope, intercept := rng.LinearFit(ts, logps)
	d := noise.Drift{P0: math.Pow(10, intercept), TDrift: 1 / slope}
	if slope <= 0 || math.IsInf(d.TDrift, 0) || d.TDrift <= 0 {
		// No measurable drift within the horizon: report a very slow gate.
		d.TDrift = 10 * horizonHours
		d.P0 = math.Pow(10, rng.Mean(logps))
	}
	return d
}

// probe parameters for crosstalk detection (Fig. 6).
const (
	crosstalkTrials     = 40
	crosstalkFlipProb   = 0.30 // disturbance probability of a true neighbour
	crosstalkBaseline   = 0.02 // readout/idle flip probability elsewhere
	crosstalkThreshold  = 0.15 // detection threshold on observed flip rate
	crosstalkProbeShell = 2    // graph radius of candidate qubits probed
)

// ProbeCrosstalk runs the Fig. 6 circuit for one gate: candidate qubits
// within the probe shell are prepared in random states, the calibration is
// executed (disturbing the gate's true crosstalk neighbourhood), and the
// states are read back; qubits deviating beyond threshold are reported as
// nbr(g). The gate's own qubits are always included (they are calibrated,
// hence certainly disturbed).
func ProbeCrosstalk(dev *device.Device, gateID int, r *rng.RNG) []int {
	g := dev.Gate(gateID)
	truth := map[int]bool{}
	for _, q := range g.Nbr {
		truth[q] = true
	}
	// Candidate set: qubits within crosstalkProbeShell hops of the gate.
	cand := map[int]bool{}
	frontier := append([]int(nil), g.Qubits...)
	for _, q := range frontier {
		cand[q] = true
	}
	for hop := 0; hop < crosstalkProbeShell; hop++ {
		var next []int
		for _, q := range frontier {
			for _, nb := range dev.Lat.Neighbors(q) {
				if !cand[nb] {
					cand[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	// Draw over the candidates in ascending order: ranging over the map
	// would hand each draw to a candidate in random order, so a fixed seed
	// would not fix nbr(g).
	qs := make([]int, 0, len(cand))
	for q := range cand {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	flips := map[int]int{}
	for trial := 0; trial < crosstalkTrials; trial++ {
		for _, q := range qs {
			p := crosstalkBaseline
			if truth[q] {
				p = crosstalkBaseline + crosstalkFlipProb
			}
			if r.Bernoulli(p) {
				flips[q]++
			}
		}
	}
	det := map[int]bool{}
	for _, q := range g.Qubits {
		det[q] = true
	}
	for q, n := range flips {
		if float64(n)/crosstalkTrials >= crosstalkThreshold {
			det[q] = true
		}
	}
	out := make([]int, 0, len(det))
	for q := range det {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// GateCharacterization is the estimated profile of one gate.
type GateCharacterization struct {
	GateID    int
	Drift     noise.Drift
	CaliHours float64
	Nbr       []int
}

// Characterization is the full preparation-time output consumed by the
// compilation-time scheduler.
type Characterization struct {
	Gates []GateCharacterization
}

// Characterize runs the full preparation stage against a device.
func Characterize(dev *device.Device, r *rng.RNG) *Characterization {
	out := &Characterization{}
	for i := range dev.Gates {
		g := &dev.Gates[i]
		gc := GateCharacterization{
			GateID: g.ID,
			Drift:  EstimateDrift(dev, g.ID, r),
			Nbr:    ProbeCrosstalk(dev, g.ID, r),
		}
		gc.CaliHours = g.CaliHours * (1 + caliTimingJitter*(2*r.Float64()-1))
		out.Gates = append(out.Gates, gc)
	}
	return out
}

// Gate returns the characterization entry for a gate ID, or nil.
func (c *Characterization) Gate(id int) *GateCharacterization {
	for i := range c.Gates {
		if c.Gates[i].GateID == id {
			return &c.Gates[i]
		}
	}
	return nil
}
