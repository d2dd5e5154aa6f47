package code

import (
	"caliqec/internal/circuit"
	"caliqec/internal/lattice"
	"fmt"
)

// NoiseModel supplies per-operation physical error rates to circuit
// generation. internal/noise provides implementations; the trivial
// UniformNoise below covers the common fixed-rate case.
type NoiseModel interface {
	// Gate1 is the depolarizing rate after a single-qubit gate on q.
	Gate1(q int) float64
	// Gate2 is the two-qubit depolarizing rate after a CX on (a, b).
	Gate2(a, b int) float64
	// Meas is the classical readout flip probability on q.
	Meas(q int) float64
	// Reset is the preparation error probability on q.
	Reset(q int) float64
}

// UniformNoise applies the same rate p to every operation, matching the
// paper's circuit-level noise model initialization (§7.2).
type UniformNoise float64

// Gate1 implements NoiseModel.
func (u UniformNoise) Gate1(int) float64 { return float64(u) }

// Gate2 implements NoiseModel.
func (u UniformNoise) Gate2(int, int) float64 { return float64(u) }

// Meas implements NoiseModel.
func (u UniformNoise) Meas(q int) float64 { return float64(u) }

// Reset implements NoiseModel.
func (u UniformNoise) Reset(q int) float64 { return float64(u) }

// HotQubit wraps a base model and elevates every operation touching one
// qubit to rate P — the circuit-level picture of a single drifted qubit.
// The drift-injection experiment records traces under HotQubit segments and
// splices them after steady segments to exercise the stream pipeline's
// drift detection with a known ground-truth qubit.
type HotQubit struct {
	Base  NoiseModel
	Qubit int
	P     float64
}

// Gate1 implements NoiseModel.
func (h HotQubit) Gate1(q int) float64 {
	if q == h.Qubit {
		return h.P
	}
	return h.Base.Gate1(q)
}

// Gate2 implements NoiseModel.
func (h HotQubit) Gate2(a, b int) float64 {
	if a == h.Qubit || b == h.Qubit {
		return h.P
	}
	return h.Base.Gate2(a, b)
}

// Meas implements NoiseModel.
func (h HotQubit) Meas(q int) float64 {
	if q == h.Qubit {
		return h.P
	}
	return h.Base.Meas(q)
}

// Reset implements NoiseModel.
func (h HotQubit) Reset(q int) float64 {
	if q == h.Qubit {
		return h.P
	}
	return h.Base.Reset(q)
}

// MemoryOptions configures memory-experiment circuit generation.
type MemoryOptions struct {
	Rounds int           // number of QEC rounds (≥ 1)
	Basis  lattice.Basis // memory basis: BasisZ stores |0>, BasisX stores |+>
	Noise  NoiseModel
	// Interleaved selects the standard simultaneous X/Z extraction
	// schedule (all plaquettes run their four CX time-steps together, with
	// the hook-safe zigzag corner orders), as used on hardware. Under this
	// package's per-gate noise model the gate count matches the default
	// sequential X-phase-then-Z-phase schedule; what changes is the hook-
	// error propagation structure. It is only defined for pristine
	// single-gauge square-lattice patches; deformed codes need the
	// sequential phases for consistent gauge fixing, and MemoryCircuit
	// returns an error if the patch does not qualify.
	Interleaved bool
}

// MemoryCircuit generates the full memory experiment for the patch: data
// initialization, Rounds cycles of gauge measurements with round-to-round
// detectors, transversal data readout with final-round detectors, and the
// logical observable. Observable 0 is the memory-basis logical. It is the
// one-epoch deformation timeline, so both share one generator.
func (p *Patch) MemoryCircuit(opt MemoryOptions) (*circuit.Circuit, error) {
	if opt.Rounds < 1 {
		return nil, fmt.Errorf("code: MemoryCircuit needs ≥ 1 round, got %d", opt.Rounds)
	}
	if opt.Interleaved {
		if err := p.interleavable(); err != nil {
			return nil, err
		}
	}
	epochs := []Epoch{{Patch: p, Rounds: opt.Rounds}}
	return generate(epochs, TimelineOptions{Basis: opt.Basis, Noise: opt.Noise}, opt.Interleaved), nil
}

// dataQubits returns the non-removed data qubits of the patch.
func (p *Patch) dataQubits() []int {
	_, ids := p.DataIndex()
	return ids
}

// circuitGen holds shared state for emitting gauge-measurement rounds.
type circuitGen struct {
	b     *circuit.Builder
	noise NoiseModel
}

// measureRound emits one full QEC round: all X-basis gauges first, then all
// Z-basis gauges (two phases, so that anticommuting gauges of deformed
// codes are measured in a consistent order within every round). It returns
// the gauge record indices grouped by check ID.
func (g *circuitGen) measureRound(checks []*Check) map[int][]int {
	recs := map[int][]int{}
	for _, basis := range []lattice.Basis{lattice.BasisX, lattice.BasisZ} {
		for _, c := range checks {
			if c.Basis != basis {
				continue
			}
			for _, ga := range c.Gauges {
				r := g.measureGauge(ga, basis)
				recs[c.ID] = append(recs[c.ID], r)
			}
		}
	}
	return recs
}

// measureGauge emits the measurement of one gauge and returns its record
// index.
func (g *circuitGen) measureGauge(ga *Gauge, basis lattice.Basis) int {
	if len(ga.Chain) == 0 {
		panic("code: gauge with empty ancilla chain") //lint:allow panicpolicy an empty gauge chain is a code-generation bug, not a runtime condition
	}
	if ga.Attach == nil {
		return g.measureDirect(ga, basis)
	}
	return g.measureChain(ga, basis)
}

// measureDirect measures a square-lattice gauge: a single syndrome ancilla
// coupled directly to each data qubit in order.
func (g *circuitGen) measureDirect(ga *Gauge, basis lattice.Basis) int {
	b, n := g.b, g.noise
	s := ga.Chain[0]
	b.Reset(n.Reset(s), s)
	if basis == lattice.BasisX {
		b.H(s)
		b.Depolarize1(n.Gate1(s), s)
		for _, d := range ga.Data {
			b.CX(s, d)
			b.Depolarize2(n.Gate2(s, d), s, d)
		}
		b.H(s)
		b.Depolarize1(n.Gate1(s), s)
	} else {
		for _, d := range ga.Data {
			b.CX(d, s)
			b.Depolarize2(n.Gate2(d, s), d, s)
		}
	}
	return b.M(n.Meas(s), s)[0]
}

// measureChain measures a heavy-hex gauge through its ancilla path.
//
// Z basis: parities funnel along the chain into the last ancilla
// (compute), the partial parities are then uncomputed, and the last ancilla
// is measured.
//
// X basis: a GHZ state is spread along the chain from the first ancilla,
// each attached data qubit is CX-coupled from its degree-3 ancilla, the GHZ
// is unwound, and the first ancilla is measured in the X basis.
func (g *circuitGen) measureChain(ga *Gauge, basis lattice.Basis) int {
	b, n := g.b, g.noise
	chain := ga.Chain
	last := chain[len(chain)-1]
	for _, a := range chain {
		b.Reset(n.Reset(a), a)
	}
	cx := func(c, t int) {
		b.CX(c, t)
		b.Depolarize2(n.Gate2(c, t), c, t)
	}
	if basis == lattice.BasisZ {
		// Forward: data parities in, funnel along the chain.
		type op struct{ c, t int }
		var forward []op
		for i, a := range chain {
			if d, ok := ga.Attach[a]; ok {
				forward = append(forward, op{d, a})
			}
			if i+1 < len(chain) {
				forward = append(forward, op{a, chain[i+1]})
			}
		}
		for _, o := range forward {
			cx(o.c, o.t)
		}
		// Uncompute everything that did not write into the readout ancilla.
		for i := len(forward) - 1; i >= 0; i-- {
			if forward[i].t == last {
				continue
			}
			cx(forward[i].c, forward[i].t)
		}
		return b.M(n.Meas(last), last)[0]
	}
	// X basis via GHZ chain rooted at chain[0].
	root := chain[0]
	b.H(root)
	b.Depolarize1(n.Gate1(root), root)
	for i := 0; i+1 < len(chain); i++ {
		cx(chain[i], chain[i+1])
	}
	for _, a := range chain {
		if d, ok := ga.Attach[a]; ok {
			cx(a, d)
		}
	}
	for i := len(chain) - 2; i >= 0; i-- {
		cx(chain[i], chain[i+1])
	}
	b.H(root)
	b.Depolarize1(n.Gate1(root), root)
	return b.M(n.Meas(root), root)[0]
}

// interleavable reports whether the patch supports the interleaved
// schedule: square lattice, every check a single direct-coupled gauge.
func (p *Patch) interleavable() error {
	if p.Lat.Kind != lattice.Square {
		return fmt.Errorf("code: interleaved schedule requires the square lattice")
	}
	for _, c := range p.Checks {
		if len(c.Gauges) != 1 || c.Gauges[0].Attach != nil || len(c.Gauges[0].Chain) != 1 {
			return fmt.Errorf("code: interleaved schedule requires a pristine patch (check %d is deformed)", c.ID)
		}
	}
	return nil
}

// measureRoundInterleaved emits one QEC round in the standard simultaneous
// schedule: reset all syndrome ancillas, Hadamard the X ancillas, run four
// CX time-steps in which every plaquette couples one corner (zigzag orders
// per basis), un-Hadamard, and measure everything.
func (g *circuitGen) measureRoundInterleaved(checks []*Check) map[int][]int {
	b, n := g.b, g.noise
	recs := map[int][]int{}
	var xs []int // X-check ancillas
	for _, c := range checks {
		s := c.Gauges[0].Chain[0]
		b.Reset(n.Reset(s), s)
		if c.Basis == lattice.BasisX {
			xs = append(xs, s)
		}
	}
	for _, s := range xs {
		b.H(s)
		b.Depolarize1(n.Gate1(s), s)
	}
	// Four time-steps: the k-th entry of each gauge's measurement-ordered
	// Data list couples in step k.
	for step := 0; step < 4; step++ {
		for _, c := range checks {
			ga := c.Gauges[0]
			if step >= len(ga.Data) {
				continue
			}
			s, d := ga.Chain[0], ga.Data[step]
			if c.Basis == lattice.BasisX {
				b.CX(s, d)
				b.Depolarize2(n.Gate2(s, d), s, d)
			} else {
				b.CX(d, s)
				b.Depolarize2(n.Gate2(d, s), d, s)
			}
		}
	}
	for _, s := range xs {
		b.H(s)
		b.Depolarize1(n.Gate1(s), s)
	}
	for _, c := range checks {
		s := c.Gauges[0].Chain[0]
		recs[c.ID] = b.M(n.Meas(s), s)
	}
	return recs
}
