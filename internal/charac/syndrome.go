package charac

import (
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/lattice"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
	"math"
	"math/bits"
	"sort"
)

// Syndrome-based drift localization: the paper schedules calibration from
// preparation-time drift constants; a natural runtime complement is to
// watch the detector firing rates the QEC cycle already produces — a
// drifting gate raises the rates of exactly the detectors whose stabilizers
// touch it. DetectorRates samples those rates and LocalizeDrift turns a
// baseline/observed pair into a ranked list of suspicious qubits, giving
// the scheduler a trigger that needs no extra characterization downtime.

// DetectorRates Monte-Carlo samples the firing rate of every detector of c.
func DetectorRates(c *circuit.Circuit, shots int, r *rng.RNG) []float64 {
	counts := make([]int, c.NumDetectors)
	fs := sim.NewFrameSimulator(c, r)
	fs.Sample(shots, func(b sim.BatchResult) {
		for d := range b.Detectors {
			l := &b.Detectors[d]
			for w := 0; w < sim.LaneWords; w++ {
				counts[d] += bits.OnesCount64(l[w])
			}
		}
	})
	rates := make([]float64, c.NumDetectors)
	for i, k := range counts {
		rates[i] = float64(k) / float64(shots)
	}
	return rates
}

// QubitSuspicion is one entry of a drift-localization ranking.
type QubitSuspicion struct {
	Qubit int
	// Score is the mean z-score of the observed-vs-baseline excess over
	// the detectors adjacent to the qubit (in units of the binomial σ).
	Score float64
}

// LocalizeDrift compares observed detector rates against a baseline and
// attributes the excess to physical qubits: each detector's z-score is
// spread over the qubits of the checks it monitors, and qubits are ranked
// by their mean incident z-score. shots is the sample size behind the
// observed rates (for the binomial σ).
//
// detOwners must map each detector index to the data/ancilla qubits whose
// errors it watches; DetectorOwners derives it for memory circuits.
func LocalizeDrift(baseline, observed []float64, shots int, detOwners [][]int, numQubits int) []QubitSuspicion {
	sum := make([]float64, numQubits)
	n := make([]int, numQubits)
	for d := range baseline {
		if d >= len(observed) || d >= len(detOwners) {
			break
		}
		p := baseline[d]
		sigma := math.Sqrt(math.Max(p*(1-p), 1e-12) / float64(shots))
		z := (observed[d] - p) / sigma
		for _, q := range detOwners[d] {
			if q >= 0 && q < numQubits {
				sum[q] += z
				n[q]++
			}
		}
	}
	var out []QubitSuspicion
	for q := 0; q < numQubits; q++ {
		if n[q] == 0 {
			continue
		}
		out = append(out, QubitSuspicion{Qubit: q, Score: sum[q] / float64(n[q])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// DetectorOwners derives, for a patch's memory circuit, the qubits each
// detector watches: the data support and measurement ancillas of its check.
// It re-derives the detector order that code's epoch loop emits for a
// single epoch — a memory-basis-only prefix in round 0, every check per
// later round, and a memory-basis readout suffix — so the table aligns
// index-for-index with code.MemoryCircuit's detectors, as
// TestDetectorOwnersAligned checks. Multi-epoch code.TimelineCircuit
// circuits add and drop detectors at each deformation and are not covered.
func DetectorOwners(p *code.Patch, rounds int, basis lattice.Basis) [][]int {
	own := func(c *code.Check) []int {
		var qs []int
		qs = append(qs, c.Support()...)
		for _, g := range c.Gauges {
			qs = append(qs, g.Chain...)
		}
		return qs
	}
	var out [][]int
	for _, c := range p.Checks {
		if c.Basis == basis {
			out = append(out, own(c))
		}
	}
	for r := 1; r < rounds; r++ {
		for _, c := range p.Checks {
			out = append(out, own(c))
		}
	}
	for _, c := range p.Checks {
		if c.Basis == basis {
			out = append(out, own(c))
		}
	}
	return out
}
