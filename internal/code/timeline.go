package code

import (
	"caliqec/internal/bitvec"
	"caliqec/internal/circuit"
	"caliqec/internal/lattice"
	"fmt"
)

// Epoch is one segment of a deformation timeline: a patch state (check set)
// held for a number of QEC rounds. Successive epochs differ by deformation
// instructions — qubits isolated or reintegrated, checks split or merged.
type Epoch struct {
	Patch  *Patch
	Rounds int
}

// TimelineOptions configures TimelineCircuit.
type TimelineOptions struct {
	Basis lattice.Basis
	Noise NoiseModel
}

// TimelineCircuit builds one continuous memory experiment that runs
// *through* code deformations: epoch k's checks are measured for its
// rounds, then the qubits leaving the code are measured out, the qubits
// re-entering are reset, and epoch k+1's checks take over. Every round
// carries the same noise as a MemoryCircuit round, data-idle channel
// included; a one-epoch timeline is MemoryCircuit's sequential circuit.
//
// The fault-tolerance bookkeeping across each transition is the gauge-
// fixing rule of §2.2: a new check is compared against the past iff its
// operator can be written as a product of (a) old check operators, (b)
// single-qubit memory-basis operators of qubits measured out at the
// transition, and (c) single-qubit memory-basis operators of qubits
// freshly reset. The GF(2) solve runs per check; solvable checks get a
// transition detector linking their first-round outcome to the involved
// old records, unsolvable ones start fresh (their first detector compares
// rounds 1 and 2 of the new epoch). This keeps every emitted detector
// deterministic on a noiseless run — the property the tests pin down —
// while preserving error detection through the deformation.
//
// Constraints: every epoch must share one lattice (use isolation and
// reintegration, not enlargement), and the memory logical operator must
// have the same representative in every epoch (pick deformation targets
// off the logical support); TimelineCircuit returns an error otherwise.
func TimelineCircuit(epochs []Epoch, opt TimelineOptions) (*circuit.Circuit, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("code: timeline needs ≥ 1 epoch")
	}
	lat := epochs[0].Patch.Lat
	logical := logicalSupport(epochs[0].Patch, opt.Basis)
	for i, e := range epochs {
		// Lattice construction is deterministic, so same kind and
		// dimensions means identical qubit IDs; pointer identity is not
		// required.
		l := e.Patch.Lat
		if l.Kind != lat.Kind || l.Rows != lat.Rows || l.Cols != lat.Cols {
			return nil, fmt.Errorf("code: epoch %d uses a different lattice (enlargement is not supported in timelines)", i)
		}
		if e.Rounds < 1 {
			return nil, fmt.Errorf("code: epoch %d has %d rounds", i, e.Rounds)
		}
		if !sameInts(logicalSupport(e.Patch, opt.Basis), logical) {
			return nil, fmt.Errorf("code: epoch %d moved the logical representative; timelines need a stable logical", i)
		}
	}
	return generate(epochs, opt, false), nil
}

// generate emits the memory experiment over a validated epoch sequence;
// MemoryCircuit is its one-epoch case. Every round, each data qubit of the
// epoch first idles (or is dynamically decoupled) through one single-qubit
// depolarizing channel at its 1Q-gate rate — where single-qubit gate drift
// on data qubits enters the logical error rate — and then the epoch's
// checks are measured by the sequential X-then-Z schedule, or by the
// interleaved one when interleaved is set.
func generate(epochs []Epoch, opt TimelineOptions, interleaved bool) *circuit.Circuit {
	if opt.Noise == nil {
		opt.Noise = UniformNoise(0)
	}
	g := &circuitGen{b: circuit.NewBuilder(epochs[0].Patch.Lat.NumQubits()), noise: opt.Noise}
	b := g.b
	measure := g.measureRound
	if interleaved {
		measure = g.measureRoundInterleaved
	}

	// Initialize epoch 0's data qubits in the memory basis.
	data := epochs[0].Patch.dataQubits()
	resetData(b, opt, data)
	b.Tick()

	// lastRecs maps a check ID to its most recent round's gauge records.
	var lastRecs map[int][]int
	for ei, e := range epochs {
		var tr transition
		if ei > 0 {
			prevData := data
			data = e.Patch.dataQubits()
			tr = enter(b, opt, epochs[ei-1].Patch, e.Patch, prevData, data, lastRecs)
			b.Tick()
		}
		for r := 0; r < e.Rounds; r++ {
			for _, q := range data {
				b.Depolarize1(opt.Noise.Gate1(q), q)
			}
			cur := measure(e.Patch.Checks)
			for _, c := range e.Patch.Checks {
				recs := cur[c.ID]
				if r == 0 && ei == 0 {
					// First round: only the memory-basis checks have
					// deterministic values (their gauges stabilize the
					// fresh product state).
					if c.Basis == opt.Basis {
						b.Detector(recs...)
					}
					continue
				}
				if r == 0 {
					if extra, ok := tr.extra[c.ID]; ok {
						b.Detector(append(append([]int(nil), extra...), recs...)...)
						continue
					}
					if tr.fresh[c.ID] {
						continue // fresh stabilizer: first comparison next round
					}
					// The check survived the transition with the same
					// operator: compare across the epoch boundary.
				}
				b.Detector(append(append([]int(nil), lastRecs[c.ID]...), recs...)...)
			}
			if r == 0 {
				for _, pd := range tr.pairs {
					recs := append([]int(nil), pd.extra...)
					recs = append(recs, cur[pd.a]...)
					recs = append(recs, cur[pd.b]...)
					b.Detector(recs...)
				}
			}
			lastRecs = cur
			b.Tick()
		}
	}

	// Transversal readout of the last epoch: each memory-basis check is
	// compared against the parity of its support in the data readout, and
	// the logical observable is read from it.
	last := epochs[len(epochs)-1].Patch
	dataRec := measureData(b, opt, data)
	for _, c := range last.Checks {
		if c.Basis != opt.Basis {
			continue
		}
		recs := append([]int(nil), lastRecs[c.ID]...)
		for _, q := range c.Support() {
			recs = append(recs, dataRec[q])
		}
		b.Detector(recs...)
	}
	var obsRecs []int
	for _, q := range logicalSupport(last, opt.Basis) {
		obsRecs = append(obsRecs, dataRec[q])
	}
	b.Observable(0, obsRecs...)
	return b.Build()
}

// transition says how an epoch's first-round detectors reach back across
// the deformation that began it.
type transition struct {
	extra map[int][]int // check ID -> earlier records its first detector adds
	fresh map[int]bool  // checks with no predictor: first compared next round
	pairs []pairDet     // predictable products of fresh check pairs
}

// enter emits the deformation from epoch prev to next — the qubits leaving
// the code are measured out and the qubits entering it are reset, both in
// the memory basis — and solves the gauge-fixing rule for next's checks.
func enter(b *circuit.Builder, opt TimelineOptions, prev, next *Patch, prevData, nextData []int, lastRecs map[int][]int) transition {
	leaving := diffInts(prevData, nextData)
	entering := diffInts(nextData, prevData)
	leavingRec := measureData(b, opt, leaving)
	// Entering qubits are known +1 single-qubit stabilizers, with no record.
	resetData(b, opt, entering)

	var olds []transOld
	for _, c := range prev.Checks {
		if c.Basis != opt.Basis {
			continue
		}
		sup := map[int]bool{}
		for _, q := range c.Support() {
			sup[q] = true
		}
		olds = append(olds, transOld{op: sup, recs: lastRecs[c.ID]})
	}
	var singles []transSingle
	for _, q := range leaving {
		singles = append(singles, transSingle{q, leavingRec[q]})
	}
	for _, q := range entering {
		singles = append(singles, transSingle{q, -1})
	}
	tr := transition{extra: map[int][]int{}, fresh: map[int]bool{}}
	var freshMem []*Check // memory-basis checks with no individual predictor
	for _, c := range next.Checks {
		if c.Basis != opt.Basis {
			// Non-memory-basis checks are never deterministic at a
			// transition in a memory experiment; they re-anchor via
			// in-epoch comparisons (their operators are unchanged unless
			// the instruction touched them, in which case they also start
			// fresh).
			if !sameOpInPrev(c, prev) {
				tr.fresh[c.ID] = true
			}
			continue
		}
		recs, ok := solveTransition(c, olds, singles)
		if !ok {
			tr.fresh[c.ID] = true
			freshMem = append(freshMem, c)
			continue
		}
		tr.extra[c.ID] = recs
	}
	// Second pass: individually-fresh checks may still have predictable
	// *products* (e.g. two checks split from a reintegrated super-stabilizer
	// multiply back to it, the Stace–Barrett reintegration comparison).
	// Solve pairs.
	for i := 0; i < len(freshMem); i++ {
		for j := i + 1; j < len(freshMem); j++ {
			a, bb := freshMem[i], freshMem[j]
			if a == nil || bb == nil {
				continue
			}
			combined := &Check{Basis: a.Basis, Gauges: append(append([]*Gauge(nil), a.Gauges...), bb.Gauges...)}
			recs, ok := solveTransition(combined, olds, singles)
			if !ok {
				continue
			}
			tr.pairs = append(tr.pairs, pairDet{a: a.ID, b: bb.ID, extra: recs})
			freshMem[i], freshMem[j] = nil, nil
			break
		}
	}
	return tr
}

func logicalSupport(p *Patch, basis lattice.Basis) []int {
	if basis == lattice.BasisZ {
		return p.LogicalZ
	}
	return p.LogicalX
}

func resetData(b *circuit.Builder, opt TimelineOptions, qubits []int) {
	for _, q := range qubits {
		if opt.Basis == lattice.BasisZ {
			b.Reset(opt.Noise.Reset(q), q)
		} else {
			b.ResetX(opt.Noise.Reset(q), q)
		}
	}
}

// measureData measures qubits out in the memory basis and returns each
// qubit's record index.
func measureData(b *circuit.Builder, opt TimelineOptions, qubits []int) map[int]int {
	recs := map[int]int{}
	for _, q := range qubits {
		if opt.Basis == lattice.BasisZ {
			recs[q] = b.M(opt.Noise.Meas(q), q)[0]
		} else {
			recs[q] = b.MX(opt.Noise.Meas(q), q)[0]
		}
	}
	return recs
}

// sameOpInPrev reports whether a check with the same ID and operator exists
// in the previous patch (it survived the transition untouched).
func sameOpInPrev(c *Check, prev *Patch) bool {
	pc := prev.CheckByID(c.ID)
	return pc != nil && pc.Basis == c.Basis && pc.Operator().Equal(c.Operator())
}

// pairDet is a transition detector over the product of two fresh checks.
type pairDet struct {
	a, b  int
	extra []int
}

// transOld is one previous-epoch check available to the transition solve.
type transOld struct {
	op   map[int]bool // data support
	recs []int        // its last round's gauge records
}

// transSingle is one known single-qubit operator at a transition: a qubit
// measured out (rec ≥ 0) or freshly reset (rec == -1, value +1).
type transSingle struct {
	q   int
	rec int
}

// solveTransition expresses the new check's operator as a GF(2) combination
// of old check operators and known single-qubit operators, and returns the
// records that combination compares against: the chosen old checks' gauge
// records, then the readouts of the chosen measured-out qubits.
func solveTransition(c *Check, olds []transOld, singles []transSingle) ([]int, bool) {
	// Column index over all data qubits mentioned anywhere.
	cols := map[int]int{}
	addQ := func(q int) {
		if _, ok := cols[q]; !ok {
			cols[q] = len(cols)
		}
	}
	for _, o := range olds {
		for q := range o.op {
			addQ(q)
		}
	}
	for _, s := range singles {
		addQ(s.q)
	}
	target := c.Support()
	for _, q := range target {
		addQ(q)
	}
	nGens := len(olds) + len(singles)
	m := bitvec.NewMatrix(len(cols), nGens)
	for gi, o := range olds {
		for q := range o.op {
			m.Set(cols[q], gi, true)
		}
	}
	for si, s := range singles {
		m.Set(cols[s.q], len(olds)+si, true)
	}
	bvec := bitvec.NewVec(len(cols))
	for _, q := range target {
		bvec.Set(cols[q], true)
	}
	x, ok := m.Solve(bvec)
	if !ok {
		return nil, false
	}
	var recs []int
	for gi, o := range olds {
		if x.Get(gi) {
			recs = append(recs, o.recs...)
		}
	}
	for si, s := range singles {
		if x.Get(len(olds)+si) && s.rec >= 0 {
			recs = append(recs, s.rec)
		}
	}
	return recs, true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[int]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, v := range seen {
		if v != 0 {
			return false
		}
	}
	return true
}

func diffInts(a, b []int) []int {
	in := map[int]bool{}
	for _, x := range b {
		in[x] = true
	}
	var out []int
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}
