// Package dem extracts a detector error model (DEM) from a noisy stabilizer
// circuit: the list of independent elementary error mechanisms, each with
// its probability, the set of detectors it flips, and the logical
// observables it flips.
//
// Pauli-frame propagation is linear: every noise channel decomposes into
// elementary Pauli errors at a circuit location, and each such error
// deterministically flips a fixed set of measurement record bits, hence a
// fixed set of detectors. FromCircuit finds every fault's set in one
// backward sweep over the circuit. Walking the instructions last to first,
// it keeps, per qubit, the detectors (a bitset) and observables that an X
// or a Z error at the current point would flip, and pulls both rows back
// through each gate, reset and measurement; a fault's symptom is the XOR of
// its components' rows where it sits. That costs O((instructions + faults)·W)
// for W = ⌈detectors/64⌉ words, where propagating each fault forward costs
// O(faults × instructions). Equal symptoms merge in forward circuit order,
// so the model is exactly the one forward propagation would build.
//
// Mechanisms whose symptom involves more than two detectors (e.g. a Y error
// straddling both stabilizer types) are decomposed into their X and Z parts
// — which, for the CSS circuits generated in this repository, are always
// graph-like (≤ 2 detectors). This reproduces the Stim
// circuit→DEM→matching-graph pipeline the paper's evaluation uses.
package dem

import (
	"caliqec/internal/circuit"
	"fmt"
	"math/bits"
	"strings"
)

// Mechanism is one independent elementary error: with probability P it
// flips every detector in Detectors and the observables in ObsMask.
type Mechanism struct {
	Detectors []int  // sorted detector indices, length 0..2 after decomposition
	ObsMask   uint64 // bit i set = flips observable i
	P         float64
}

// Model is the full detector error model of a circuit.
type Model struct {
	NumDetectors int
	NumObs       int
	Mechanisms   []Mechanism
	// NumRounds and DetectorRounds carry the source circuit's round
	// structure through extraction: DetectorRounds[d] is the QEC round in
	// which detector d fires. Both are zero/nil when the circuit predates
	// round tracking; the decoder then falls back to whole-shot decoding.
	NumRounds      int
	DetectorRounds []int
	// DetectorQubits maps each detector to the physical qubit whose
	// measurement closed it (circuit.DetectorQubits), -1 when unknown; nil
	// when the source circuit was not available. Drift observability uses
	// it, via the decoding graph, to name the hardware qubit behind an
	// anomalous detector.
	DetectorQubits []int
}

// Validate checks the model's round map when present: length matching
// NumDetectors, rounds within [0, NumRounds), and monotone non-decreasing
// in detector order (the contract the windowed decoder's round splitter
// relies on).
func (m *Model) Validate() error {
	if m.DetectorQubits != nil && len(m.DetectorQubits) != m.NumDetectors {
		return fmt.Errorf("dem: %d detector qubits for %d detectors", len(m.DetectorQubits), m.NumDetectors)
	}
	if m.NumRounds == 0 && m.DetectorRounds == nil {
		return nil
	}
	if m.NumRounds <= 0 {
		return fmt.Errorf("dem: DetectorRounds set but NumRounds=%d", m.NumRounds)
	}
	if len(m.DetectorRounds) != m.NumDetectors {
		return fmt.Errorf("dem: %d detector rounds for %d detectors", len(m.DetectorRounds), m.NumDetectors)
	}
	prev := 0
	for d, r := range m.DetectorRounds {
		if r < 0 || r >= m.NumRounds {
			return fmt.Errorf("dem: detector %d round %d out of range [0,%d)", d, r, m.NumRounds)
		}
		if r < prev {
			return fmt.Errorf("dem: detector %d round %d after round %d (rounds must be non-decreasing)", d, r, prev)
		}
		prev = r
	}
	return nil
}

// String renders the model, one mechanism per line, for debugging.
func (m *Model) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DEM: %d detectors, %d observables, %d mechanisms\n",
		m.NumDetectors, m.NumObs, len(m.Mechanisms))
	for _, mech := range m.Mechanisms {
		fmt.Fprintf(&sb, "  p=%.6g D%v obs=%b\n", mech.P, mech.Detectors, mech.ObsMask)
	}
	return sb.String()
}

const (
	bitX uint8 = 2
	bitZ uint8 = 1
)

// FromCircuit extracts the DEM of c. It returns an error if any mechanism
// remains non-graph-like (more than two detectors) after X/Z decomposition,
// which indicates the circuit is outside the CSS family this package
// supports, or if c references a qubit, record or detector out of range.
func FromCircuit(c *circuit.Circuit) (*Model, error) {
	sw, err := newSweep(c)
	if err != nil {
		return nil, err
	}
	if err := sw.run(c.Instructions); err != nil {
		return nil, err
	}
	m := &Model{
		NumDetectors:   c.NumDetectors,
		NumObs:         c.NumObs,
		Mechanisms:     sw.mechanisms(),
		NumRounds:      c.NumRounds,
		DetectorRounds: c.DetectorRounds(),
		DetectorQubits: c.DetectorQubits(),
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// symptom is a graph-like fault effect and the key equal effects merge
// under: up to two detectors in ascending order (-1 pads an absent one)
// and the observable mask.
type symptom struct {
	d   [2]int32
	obs uint64
}

// fault is one visible elementary error awaiting its merge.
type fault struct {
	s symptom
	p float64
}

// sweep is the state of one backward pass over a circuit. Row 2q holds the
// detectors (a bitset of w words) and the observables that an X error on
// qubit q at the current point of the pass would flip; row 2q+1 holds
// those of a Z error.
type sweep struct {
	w      int
	rows   []uint64 // 2·NumQubits rows of w words each
	rowObs []uint64 // observable mask of each row
	recDet [][]int  // detectors that include each measurement record bit
	recObs []uint64 // observables that include each measurement record bit
	// acc and accObs hold the symptom of the fault being emitted.
	acc    []uint64
	accObs uint64
	// faults holds the symptom of every visible fault. The pass visits
	// instructions last to first and appends each one's faults, in forward
	// order, as one segment; segs lists the segment bounds in pass order.
	faults []fault
	segs   []int
}

func newSweep(c *circuit.Circuit) (*sweep, error) {
	nmeas, nfaults := 0, 0
	for i, in := range c.Instructions {
		for _, q := range in.Targets {
			if q < 0 || q >= c.NumQubits {
				return nil, fmt.Errorf("dem: instruction %d (%s): qubit %d out of range [0,%d)", i, in.Op, q, c.NumQubits)
			}
		}
		if in.Op.IsTwoQubit() {
			if len(in.Targets)%2 != 0 {
				return nil, fmt.Errorf("dem: instruction %d (%s): odd target count", i, in.Op)
			}
			for j := 0; j < len(in.Targets); j += 2 {
				if in.Targets[j] == in.Targets[j+1] {
					return nil, fmt.Errorf("dem: instruction %d (%s): pair targets equal (%d)", i, in.Op, in.Targets[j])
				}
			}
		}
		switch in.Op {
		case circuit.OpM, circuit.OpMX:
			nmeas += len(in.Targets)
		case circuit.OpDepolarize1:
			nfaults += 3 * len(in.Targets)
		case circuit.OpDepolarize2:
			nfaults += 15 * len(in.Targets) / 2
		}
	}
	w := (c.NumDetectors + 63) / 64
	sw := &sweep{
		w:      w,
		rows:   make([]uint64, 2*c.NumQubits*w),
		rowObs: make([]uint64, 2*c.NumQubits),
		recDet: make([][]int, nmeas),
		recObs: make([]uint64, nmeas),
		acc:    make([]uint64, w),
		faults: make([]fault, 0, nfaults),
		segs:   make([]int, 0, 2*len(c.Instructions)),
	}
	for i, in := range c.Instructions {
		if in.Op != circuit.OpDetector && in.Op != circuit.OpObservable {
			continue
		}
		if in.Op == circuit.OpDetector && (in.Index < 0 || in.Index >= c.NumDetectors) {
			return nil, fmt.Errorf("dem: instruction %d: detector index %d out of range [0,%d)", i, in.Index, c.NumDetectors)
		}
		for _, r := range in.Recs {
			if r < 0 || r >= nmeas {
				return nil, fmt.Errorf("dem: instruction %d (%s): rec %d out of range [0,%d)", i, in.Op, r, nmeas)
			}
			if in.Op == circuit.OpDetector {
				sw.recDet[r] = append(sw.recDet[r], in.Index)
			} else {
				sw.recObs[r] ^= 1 << uint(in.Index)
			}
		}
	}
	return sw, nil
}

// run sweeps the circuit last instruction to first. At each instruction
// the rows describe the point just after it, which is where its faults
// sit, so it emits them before pulling the rows back through it. When
// faults at several instructions are non-graph-like, run reports the
// earliest one, the first a forward pass would meet.
func (sw *sweep) run(ins []circuit.Instruction) error {
	var first error
	meas := len(sw.recDet)
	for idx := len(ins) - 1; idx >= 0; idx-- {
		in := &ins[idx]
		if in.Op == circuit.OpM || in.Op == circuit.OpMX {
			meas -= len(in.Targets)
		}
		start := len(sw.faults)
		if err := sw.emitFaults(idx, in, meas); err != nil {
			first = err
			sw.faults = sw.faults[:start]
		}
		if len(sw.faults) > start {
			sw.segs = append(sw.segs, start, len(sw.faults))
		}
		sw.pullBack(in, meas)
	}
	return first
}

// emitFaults emits the faults located after instruction idx in the order
// the forward pass meets them: target by target and, within a channel,
// Pauli by Pauli. meas is the record index of its first measurement.
func (sw *sweep) emitFaults(idx int, in *circuit.Instruction, meas int) error {
	one := func(pauli uint8, p float64) error {
		for _, q := range in.Targets {
			if err := sw.pauli(idx, q, pauli, 0, 0, p); err != nil {
				return err
			}
		}
		return nil
	}
	switch in.Op {
	case circuit.OpXError:
		return one(bitX, in.Arg)
	case circuit.OpZError:
		return one(bitZ, in.Arg)
	case circuit.OpYError:
		return one(bitX|bitZ, in.Arg)
	case circuit.OpDepolarize1:
		p := in.Arg / 3
		for _, q := range in.Targets {
			for _, pauli := range [3]uint8{bitX, bitX | bitZ, bitZ} {
				if err := sw.pauli(idx, q, pauli, 0, 0, p); err != nil {
					return err
				}
			}
		}
	case circuit.OpDepolarize2:
		p := in.Arg / 15
		for i := 0; i < len(in.Targets); i += 2 {
			a, b := in.Targets[i], in.Targets[i+1]
			for k := 1; k < 16; k++ {
				if err := sw.pauli(idx, a, uint8(k&3), b, uint8(k>>2), p); err != nil {
					return err
				}
			}
		}
	case circuit.OpReset:
		if in.Arg > 0 {
			return one(bitX, in.Arg)
		}
	case circuit.OpResetX:
		if in.Arg > 0 {
			return one(bitZ, in.Arg)
		}
	case circuit.OpM, circuit.OpMX:
		if in.Arg > 0 {
			for j := range in.Targets {
				if err := sw.readoutFlip(meas+j, in.Arg); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pauli emits the fault pa on qubit a times pb on qubit b (pb is 0 for a
// one-qubit fault) with probability p. A fault flipping more than two
// detectors is split into its X and Z parts, and a two-qubit part that
// still flips more than two into its qubits, in ascending qubit order.
func (sw *sweep) pauli(idx, a int, pa uint8, b int, pb uint8, p float64) error {
	if p <= 0 {
		return nil
	}
	if sw.load(a, pa, b, pb) <= 2 {
		sw.emit(p)
		return nil
	}
	for _, bit := range [2]uint8{bitX, bitZ} {
		ma, mb := pa&bit, pb&bit
		if ma == 0 && mb == 0 {
			continue
		}
		n := sw.load(a, ma, b, mb)
		if n <= 2 {
			sw.emit(p)
			continue
		}
		if ma != 0 && mb != 0 && sw.split(a, b, bit, p) {
			continue
		}
		return fmt.Errorf("dem: non-graph-like mechanism at instruction %d (%d detectors)", idx, n)
	}
	return nil
}

// split emits the one-qubit faults bit on a and on b, lower qubit first;
// it reports false if either flips more than two detectors.
func (sw *sweep) split(a, b int, bit uint8, p float64) bool {
	if b < a {
		a, b = b, a
	}
	for _, q := range [2]int{a, b} {
		if sw.load(q, bit, 0, 0) > 2 {
			return false
		}
		sw.emit(p)
	}
	return true
}

// load sets acc to the symptom of pa on qubit a times pb on qubit b and
// returns the number of detectors it flips.
func (sw *sweep) load(a int, pa uint8, b int, pb uint8) int {
	clear(sw.acc)
	sw.accObs = 0
	if pa&bitX != 0 {
		sw.add(2 * a)
	}
	if pa&bitZ != 0 {
		sw.add(2*a + 1)
	}
	if pb&bitX != 0 {
		sw.add(2 * b)
	}
	if pb&bitZ != 0 {
		sw.add(2*b + 1)
	}
	return sw.count()
}

// add XORs row r into acc.
func (sw *sweep) add(r int) {
	for i, x := range sw.row(r) {
		sw.acc[i] ^= x
	}
	sw.accObs ^= sw.rowObs[r]
}

// readoutFlip emits the classical flip of measurement record r.
func (sw *sweep) readoutFlip(r int, p float64) error {
	clear(sw.acc)
	sw.accObs = sw.xorRecord(sw.acc, r)
	if n := sw.count(); n > 2 {
		return fmt.Errorf("dem: measurement record %d appears in %d detectors", r, n)
	}
	sw.emit(p)
	return nil
}

func (sw *sweep) count() int {
	n := 0
	for _, x := range sw.acc {
		n += bits.OnesCount64(x)
	}
	return n
}

// emit records the symptom in acc, which flips at most two detectors,
// with probability p. A fault that flips nothing is invisible and dropped.
func (sw *sweep) emit(p float64) {
	s := symptom{d: [2]int32{-1, -1}, obs: sw.accObs}
	k := 0
	for i, x := range sw.acc {
		for ; x != 0; x &= x - 1 {
			s.d[k] = int32(64*i + bits.TrailingZeros64(x))
			k++
		}
	}
	if k == 0 && s.obs == 0 {
		return
	}
	sw.faults = append(sw.faults, fault{s, p})
}

func (sw *sweep) row(r int) []uint64 { return sw.rows[r*sw.w : (r+1)*sw.w] }

// xorRow adds row src's symptom to row dst's.
func (sw *sweep) xorRow(dst, src int) {
	d := sw.row(dst)
	for i, x := range sw.row(src) {
		d[i] ^= x
	}
	sw.rowObs[dst] ^= sw.rowObs[src]
}

func (sw *sweep) swapRows(r, s int) {
	a, b := sw.row(r), sw.row(s)
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
	sw.rowObs[r], sw.rowObs[s] = sw.rowObs[s], sw.rowObs[r]
}

func (sw *sweep) clearRow(r int) {
	clear(sw.row(r))
	sw.rowObs[r] = 0
}

// xorRecord flips the detectors of measurement record rec in the bitset
// dst and returns the record's observables.
func (sw *sweep) xorRecord(dst []uint64, rec int) uint64 {
	for _, d := range sw.recDet[rec] {
		dst[d>>6] ^= 1 << uint(d&63)
	}
	return sw.recObs[rec]
}

// addRecord adds the symptom of measurement record rec to row r.
func (sw *sweep) addRecord(r, rec int) {
	sw.rowObs[r] ^= sw.xorRecord(sw.row(r), rec)
}

// pullBack moves the rows from the point just after instruction in to the
// point just before it. Targets are walked in reverse, which keeps a qubit
// that appears in several pairs of one instruction exact. meas is the
// record index of the instruction's first measurement.
func (sw *sweep) pullBack(in *circuit.Instruction, meas int) {
	t := in.Targets
	switch in.Op {
	case circuit.OpH:
		// X before H is Z after it, and vice versa.
		for j := len(t) - 1; j >= 0; j-- {
			sw.swapRows(2*t[j], 2*t[j]+1)
		}
	case circuit.OpS:
		// S maps X to Y and keeps Z.
		for j := len(t) - 1; j >= 0; j-- {
			sw.xorRow(2*t[j], 2*t[j]+1)
		}
	case circuit.OpCX:
		// X on the control spreads to the target; Z on the target spreads
		// to the control.
		for j := len(t) - 2; j >= 0; j -= 2 {
			c, g := t[j], t[j+1]
			sw.xorRow(2*c, 2*g)
			sw.xorRow(2*g+1, 2*c+1)
		}
	case circuit.OpCZ:
		// X on either qubit picks up Z on the other.
		for j := len(t) - 2; j >= 0; j -= 2 {
			a, b := t[j], t[j+1]
			sw.xorRow(2*a, 2*b+1)
			sw.xorRow(2*b, 2*a+1)
		}
	case circuit.OpSwap:
		for j := len(t) - 2; j >= 0; j -= 2 {
			a, b := t[j], t[j+1]
			sw.swapRows(2*a, 2*b)
			sw.swapRows(2*a+1, 2*b+1)
		}
	case circuit.OpReset, circuit.OpResetX:
		// A reset absorbs any error before it.
		for j := len(t) - 1; j >= 0; j-- {
			sw.clearRow(2 * t[j])
			sw.clearRow(2*t[j] + 1)
		}
	case circuit.OpM:
		// X flips the record and survives the collapse; Z is absorbed.
		for j := len(t) - 1; j >= 0; j-- {
			sw.clearRow(2*t[j] + 1)
			sw.addRecord(2*t[j], meas+j)
		}
	case circuit.OpMX:
		for j := len(t) - 1; j >= 0; j-- {
			sw.clearRow(2 * t[j])
			sw.addRecord(2*t[j]+1, meas+j)
		}
	}
}

// mechanisms replays the stored faults in forward circuit order, the order
// a forward pass meets them, so first-seen order and every merged
// probability come out as forward propagation of each fault would give
// them. Equal symptoms merge as independent sources: p ← p₁(1−p₂) + p₂(1−p₁).
// Mechanisms whose merged probability is not positive are dropped.
func (sw *sweep) mechanisms() []Mechanism {
	index := make(map[symptom]int, len(sw.faults)/8)
	var keys []symptom
	var ps []float64
	for k := len(sw.segs) - 2; k >= 0; k -= 2 {
		for _, f := range sw.faults[sw.segs[k]:sw.segs[k+1]] {
			if i, ok := index[f.s]; ok {
				ps[i] = ps[i]*(1-f.p) + f.p*(1-ps[i])
				continue
			}
			index[f.s] = len(keys)
			keys = append(keys, f.s)
			ps = append(ps, f.p)
		}
	}
	out := make([]Mechanism, 0, len(keys))
	dets := make([]int, 0, 2*len(keys))
	for i, s := range keys {
		if !(ps[i] > 0) {
			continue
		}
		m := Mechanism{ObsMask: s.obs, P: ps[i]}
		start := len(dets)
		for _, d := range s.d {
			if d >= 0 {
				dets = append(dets, int(d))
			}
		}
		if len(dets) > start {
			m.Detectors = dets[start:len(dets):len(dets)]
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
