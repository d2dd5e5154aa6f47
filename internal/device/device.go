// Package device models a synthetic quantum processor: the calibratable
// gates over a lattice, each with its own freshly-calibrated error rate,
// drift time constant, calibration duration, and crosstalk neighbourhood.
//
// This substitutes for the paper's IBM Eagle / Rigetti Ankaa-2 hardware:
// the paper's own large-scale evaluation is simulation driven by
// hardware-*derived parameters* (drift constants log-normal with mean
// 14.08 h, per-gate calibration times of minutes), which is exactly what
// this package samples. The characterization stage (internal/charac)
// re-estimates these ground-truth parameters through simulated experiments,
// like the preparation stage of the paper does on real devices.
package device

import (
	"caliqec/internal/lattice"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"fmt"
	"sort"
)

// GateKind distinguishes one- from two-qubit gates.
type GateKind uint8

// Gate kinds.
const (
	Gate1Q GateKind = iota
	Gate2Q
)

func (k GateKind) String() string {
	if k == Gate1Q {
		return "1Q"
	}
	return "2Q"
}

// Gate is one calibratable operation.
type Gate struct {
	ID     int
	Kind   GateKind
	Qubits []int // 1 or 2 qubit IDs
	// Drift is the ground-truth drift law (re-estimated by charac).
	Drift noise.Drift
	// CaliHours is the time a calibration of this gate takes.
	CaliHours float64
	// Nbr is the ground-truth crosstalk neighbourhood: qubits disturbed by
	// calibrating this gate (paper §4). It always contains the gate's own
	// qubits.
	Nbr []int
	// lastCali is the time (hours) of the most recent calibration.
	lastCali float64
}

// ErrorRate returns the gate's error rate at absolute time t (hours),
// accounting for its most recent calibration.
func (g *Gate) ErrorRate(t float64) float64 {
	dt := t - g.lastCali
	if dt < 0 {
		dt = 0
	}
	return g.Drift.At(dt)
}

// Device is a synthetic processor over a lattice.
type Device struct {
	Lat   *lattice.Lattice
	Gates []Gate
}

// Synthesis constants. Drift constants follow noise.CurrentModel() and
// every gate starts at noise.InitialErrorRate.
const (
	// caliMinHours and caliMaxHours bound the uniformly drawn per-gate
	// calibration duration: 2–10 minutes ("individual gate calibration
	// takes a few minutes", §4).
	caliMinHours float64 = 2.0 / 60
	caliMaxHours float64 = 10.0 / 60
	// extraNbrProb adds each second-shell qubit to a gate's crosstalk set
	// with this probability, modelling the irregular TLS-induced couplings
	// the Fig. 6 probe discovers.
	extraNbrProb = 0.15
)

// New synthesizes a device over lat: one single-qubit gate per qubit and
// one two-qubit gate per coupling-graph edge, each with independently
// sampled drift constants and crosstalk neighbourhoods.
func New(lat *lattice.Lattice, r *rng.RNG) *Device {
	model := noise.CurrentModel()
	d := &Device{Lat: lat}
	addGate := func(kind GateKind, qubits []int) {
		g := Gate{
			ID:     len(d.Gates),
			Kind:   kind,
			Qubits: qubits,
			Drift: noise.Drift{
				P0:     noise.InitialErrorRate,
				TDrift: model.SampleTDrift(r),
			},
			CaliHours: caliMinHours + r.Float64()*(caliMaxHours-caliMinHours),
		}
		// Crosstalk neighbourhood: own qubits, all coupled neighbours, and
		// a random sprinkle of second-shell qubits.
		nbr := map[int]bool{}
		for _, q := range qubits {
			nbr[q] = true
			for _, x := range lat.Neighbors(q) {
				nbr[x] = true
				for _, y := range lat.Neighbors(x) {
					if !nbr[y] && r.Bernoulli(extraNbrProb) {
						nbr[y] = true
					}
				}
			}
		}
		for q := range nbr {
			g.Nbr = append(g.Nbr, q)
		}
		sort.Ints(g.Nbr)
		d.Gates = append(d.Gates, g)
	}
	for q := range lat.Qubits {
		addGate(Gate1Q, []int{q})
	}
	seen := map[[2]int]bool{}
	for q := range lat.Qubits {
		for _, nb := range lat.Neighbors(q) {
			a, b := q, nb
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			addGate(Gate2Q, []int{a, b})
		}
	}
	return d
}

// Gate returns the gate with the given ID.
func (d *Device) Gate(id int) *Gate {
	if id < 0 || id >= len(d.Gates) {
		panic(fmt.Sprintf("device: gate %d out of range", id)) //lint:allow panicpolicy gate-ID misuse mirrors built-in slice indexing
	}
	return &d.Gates[id]
}

// Calibrate resets a gate's drift clock at time t (hours).
func (d *Device) Calibrate(id int, t float64) { d.Gate(id).lastCali = t }

// CalibrateAll resets every gate at time t (the full pre-program
// calibration of §4).
func (d *Device) CalibrateAll(t float64) {
	for i := range d.Gates {
		d.Gates[i].lastCali = t
	}
}

// NoiseAt lowers the device's state at time t into a per-operation noise
// map for circuit generation: single-qubit gate rates feed H/reset/measure
// noise on that qubit, two-qubit rates feed CX noise on that pair.
func (d *Device) NoiseAt(t float64) *noise.Map {
	m := noise.NewMap(noise.InitialErrorRate)
	for i := range d.Gates {
		g := &d.Gates[i]
		p := g.ErrorRate(t)
		switch g.Kind {
		case Gate1Q:
			q := g.Qubits[0]
			m.Gate1Q[q] = p
			m.MeasQ[q] = p
			m.ResetQ[q] = p
		case Gate2Q:
			m.SetGate2(g.Qubits[0], g.Qubits[1], p)
		}
	}
	return m
}

// MeanErrorAt returns the device-average gate error rate at time t.
func (d *Device) MeanErrorAt(t float64) float64 {
	sum := 0.0
	for i := range d.Gates {
		sum += d.Gates[i].ErrorRate(t)
	}
	return sum / float64(len(d.Gates))
}

// FractionAbove returns the fraction of gates whose error rate at time t
// exceeds the given threshold (the Fig. 1 metric).
func (d *Device) FractionAbove(t, threshold float64) float64 {
	n := 0
	for i := range d.Gates {
		if d.Gates[i].ErrorRate(t) > threshold {
			n++
		}
	}
	return float64(n) / float64(len(d.Gates))
}

// GatesOnQubit returns the IDs of gates acting on qubit q.
func (d *Device) GatesOnQubit(q int) []int {
	var out []int
	for i := range d.Gates {
		for _, x := range d.Gates[i].Qubits {
			if x == q {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
