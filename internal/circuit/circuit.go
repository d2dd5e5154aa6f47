// Package circuit defines the stabilizer-circuit intermediate representation
// shared by the Monte-Carlo frame simulator (internal/sim) and the detector
// error model extractor (internal/dem).
//
// The IR mirrors the subset of Stim's language that quantum-error-correction
// sampling needs: Clifford gates, resets and measurements in the Z and X
// bases, circuit-level noise channels, and DETECTOR / OBSERVABLE_INCLUDE
// annotations over the measurement record. Circuits are flat instruction
// lists; repetition is handled by the builder (Repeat) which unrolls rounds
// at construction time, keeping both consumers simple.
package circuit

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
)

// OpCode enumerates instruction kinds.
type OpCode uint8

// Instruction opcodes.
const (
	// Gates. Targets are qubit indices; two-qubit gates take pairs.
	OpH    OpCode = iota // Hadamard
	OpS                  // Phase gate (Z^{1/2})
	OpCX                 // Controlled-X, targets (control, target) pairs
	OpCZ                 // Controlled-Z, targets as unordered pairs
	OpSwap               // SWAP, targets as pairs

	// State preparation and measurement. Arg on OpM / OpMX is the classical
	// readout flip probability; Arg on resets is the reset error probability
	// (an X error after |0> reset, a Z error after |+> reset).
	OpReset  // reset to |0>
	OpResetX // reset to |+>
	OpM      // Z-basis measurement, appends one record bit per target
	OpMX     // X-basis measurement, appends one record bit per target

	// Noise channels. Arg is the total error probability.
	OpDepolarize1 // uniform {X,Y,Z} with probability Arg
	OpDepolarize2 // uniform 15 two-qubit Paulis with probability Arg, pairs
	OpXError      // X with probability Arg
	OpZError      // Z with probability Arg
	OpYError      // Y with probability Arg

	// Annotations. Detectors and observables reference absolute measurement
	// record indices (resolved by the Builder from relative offsets).
	OpDetector
	OpObservable // observable include; Targets[0] is the observable index in Recs? see Instruction
	OpTick       // timing marker (one QEC-cycle boundary); no effect on state
)

var opNames = map[OpCode]string{
	OpH: "H", OpS: "S", OpCX: "CX", OpCZ: "CZ", OpSwap: "SWAP",
	OpReset: "R", OpResetX: "RX", OpM: "M", OpMX: "MX",
	OpDepolarize1: "DEPOLARIZE1", OpDepolarize2: "DEPOLARIZE2",
	OpXError: "X_ERROR", OpZError: "Z_ERROR", OpYError: "Y_ERROR",
	OpDetector: "DETECTOR", OpObservable: "OBSERVABLE_INCLUDE", OpTick: "TICK",
}

// String returns the Stim-style mnemonic.
func (o OpCode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OpCode(%d)", uint8(o))
}

// IsNoise reports whether the opcode is a stochastic error channel.
func (o OpCode) IsNoise() bool {
	switch o {
	case OpDepolarize1, OpDepolarize2, OpXError, OpZError, OpYError:
		return true
	}
	return false
}

// IsTwoQubit reports whether targets are consumed in pairs.
func (o OpCode) IsTwoQubit() bool {
	switch o {
	case OpCX, OpCZ, OpSwap, OpDepolarize2:
		return true
	}
	return false
}

// Instruction is one IR operation.
type Instruction struct {
	Op      OpCode
	Targets []int   // qubit indices (pairs flattened for two-qubit ops)
	Arg     float64 // probability for noise/measurement ops
	Recs    []int   // absolute measurement indices (OpDetector/OpObservable)
	Index   int     // detector index, or observable index, for annotations
	// Round is the QEC-round index (the number of OpTicks emitted before
	// this instruction) recorded by the Builder on OpDetector, OpM and OpMX.
	// Unrolling Repeat therefore does not erase the round structure: every
	// detector and every measurement record bit keeps its provenance, which
	// is what lets the decoding graph be layered by round and the windowed
	// decoder commit corrections behind a sliding round window.
	Round int
}

// String renders the instruction in a Stim-like textual form.
func (in Instruction) String() string {
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	if in.Arg != 0 { //lint:allow floateq rendering elides an Arg that is exactly the zero value, never computed
		fmt.Fprintf(&sb, "(%g)", in.Arg)
	}
	switch in.Op {
	case OpDetector, OpObservable:
		if in.Op == OpObservable {
			fmt.Fprintf(&sb, " L%d", in.Index)
		} else {
			fmt.Fprintf(&sb, " D%d", in.Index)
		}
		for _, r := range in.Recs {
			fmt.Fprintf(&sb, " rec[%d]", r)
		}
	default:
		for _, t := range in.Targets {
			fmt.Fprintf(&sb, " %d", t)
		}
	}
	return sb.String()
}

// Circuit is a flat, fully unrolled stabilizer circuit. A circuit the
// Builder returns is immutable: its fingerprint is computed once, in Finish.
type Circuit struct {
	Instructions []Instruction
	NumQubits    int
	NumMeas      int // total measurement record bits
	NumDetectors int
	NumObs       int
	// NumRounds is 1 + the largest detector Round, or 0 when the circuit
	// carries no round structure (hand-assembled literals predating round
	// tracking). The Builder computes it in Finish.
	NumRounds int

	fp [16]byte // Fingerprint, set by Builder.Finish; zero for literals
}

// Fingerprint returns a 128-bit content hash of c: its dimensions and every
// instruction's opcode, the float bits of its probability argument, its
// annotation index, targets and record references (FNV-1a 128). It covers
// structure AND noise parameters, so two circuits that differ only in a
// channel probability hash differently. A circuit from the Builder returns
// the hash Finish computed; a hand-assembled literal hashes on each call.
func (c *Circuit) Fingerprint() [16]byte {
	if c.fp != ([16]byte{}) {
		return c.fp
	}
	h := fnv.New128a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(c.NumQubits))
	put(uint64(c.NumMeas))
	put(uint64(c.NumDetectors))
	put(uint64(c.NumObs))
	put(uint64(len(c.Instructions)))
	for _, in := range c.Instructions {
		put(uint64(in.Op))
		put(math.Float64bits(in.Arg))
		put(uint64(in.Index))
		put(uint64(len(in.Targets)))
		for _, t := range in.Targets {
			put(uint64(t))
		}
		put(uint64(len(in.Recs)))
		for _, r := range in.Recs {
			put(uint64(r))
		}
	}
	var fp [16]byte
	h.Sum(fp[:0])
	return fp
}

// DetectorRounds returns the round index of every detector, in detector
// order. Returns nil when the circuit carries no round structure.
func (c *Circuit) DetectorRounds() []int {
	if c.NumRounds == 0 {
		return nil
	}
	rounds := make([]int, 0, c.NumDetectors)
	for _, in := range c.Instructions {
		if in.Op == OpDetector {
			rounds = append(rounds, in.Round)
		}
	}
	return rounds
}

// DetectorQubits returns, for every detector, the physical qubit whose
// measurement closed the detector — the qubit of the most recent (highest
// record index) measurement the detector references, which for the
// stabilizer circuits built in this repository is the check's measure
// ancilla. Detectors referencing no record map to -1. Drift observability
// uses this to attribute an anomalous detector fire rate back to hardware:
// a drifting qubit elevates exactly the detectors anchored on (or adjacent
// to) it.
func (c *Circuit) DetectorQubits() []int {
	recQubit := make([]int, 0, c.NumMeas)
	out := make([]int, 0, c.NumDetectors)
	for _, in := range c.Instructions {
		switch in.Op {
		case OpM, OpMX:
			recQubit = append(recQubit, in.Targets...)
		case OpDetector:
			q, best := -1, -1
			for _, r := range in.Recs {
				if r > best && r >= 0 && r < len(recQubit) {
					best, q = r, recQubit[r]
				}
			}
			out = append(out, q)
		}
	}
	return out
}

// String renders the whole circuit, one instruction per line.
func (c *Circuit) String() string {
	lines := make([]string, 0, len(c.Instructions))
	for _, in := range c.Instructions {
		lines = append(lines, in.String())
	}
	return strings.Join(lines, "\n")
}

// CountOps returns the number of instructions with the given opcode.
func (c *Circuit) CountOps(op OpCode) int {
	n := 0
	for _, in := range c.Instructions {
		if in.Op == op {
			n++
		}
	}
	return n
}

// Validate checks structural invariants: target indices in range, two-qubit
// target lists of even length with distinct qubits per pair, record indices
// in range, every noise probability a number in [0,1], and deterministic
// detector/observable bookkeeping — detector indices dense and in emission
// order, observable indices within NumObs, and no annotation referencing
// the same record bit twice (a duplicate XORs itself away, silently
// decoupling the detector from that measurement). `caliqec vet` reports
// these statically, before any simulation runs.
func (c *Circuit) Validate() error {
	meas := 0
	nextDet := 0
	maxObs := -1
	prevDetRound := 0
	for i, in := range c.Instructions {
		for _, t := range in.Targets {
			if t < 0 || t >= c.NumQubits {
				return fmt.Errorf("circuit: instr %d (%s): qubit %d out of range [0,%d)", i, in.Op, t, c.NumQubits)
			}
		}
		if in.Op.IsTwoQubit() {
			if len(in.Targets)%2 != 0 {
				return fmt.Errorf("circuit: instr %d (%s): odd target count", i, in.Op)
			}
			for j := 0; j < len(in.Targets); j += 2 {
				if in.Targets[j] == in.Targets[j+1] {
					return fmt.Errorf("circuit: instr %d (%s): pair targets equal (%d)", i, in.Op, in.Targets[j])
				}
			}
		}
		switch in.Op {
		case OpM, OpMX:
			meas += len(in.Targets)
		case OpDetector, OpObservable:
			seen := make(map[int]bool, len(in.Recs))
			for _, r := range in.Recs {
				if r < 0 || r >= meas {
					return fmt.Errorf("circuit: instr %d (%s): rec %d out of range [0,%d)", i, in.Op, r, meas)
				}
				if seen[r] {
					return fmt.Errorf("circuit: instr %d (%s): rec %d referenced twice; the duplicate cancels under XOR", i, in.Op, r)
				}
				seen[r] = true
			}
			if in.Op == OpDetector {
				if in.Index != nextDet {
					return fmt.Errorf("circuit: instr %d: detector index %d, want %d (indices must be dense and in emission order)", i, in.Index, nextDet)
				}
				nextDet++
				// Detector rounds must be monotone non-decreasing in emission
				// order: the windowed decoder splits a sorted syndrome into
				// rounds with a single linear walk, which only works when the
				// detector-index order agrees with the round order. Circuits
				// without round structure have all rounds zero, which passes
				// trivially. The range check applies only when NumRounds is
				// set, tolerating hand-built literals that never call Finish.
				if in.Round < prevDetRound {
					return fmt.Errorf("circuit: instr %d: detector %d at round %d after detector at round %d (rounds must be non-decreasing)", i, in.Index, in.Round, prevDetRound)
				}
				prevDetRound = in.Round
				if c.NumRounds > 0 && in.Round >= c.NumRounds {
					return fmt.Errorf("circuit: instr %d: detector %d round %d out of range [0,%d)", i, in.Index, in.Round, c.NumRounds)
				}
			} else {
				if in.Index < 0 {
					return fmt.Errorf("circuit: instr %d: negative observable index %d", i, in.Index)
				}
				if in.Index > maxObs {
					maxObs = in.Index
				}
			}
		}
		if in.Op.IsNoise() || in.Op == OpM || in.Op == OpMX || in.Op == OpReset || in.Op == OpResetX {
			if math.IsNaN(in.Arg) || in.Arg < 0 || in.Arg > 1 {
				return fmt.Errorf("circuit: instr %d (%s): probability %g out of [0,1]", i, in.Op, in.Arg)
			}
		}
	}
	if meas != c.NumMeas {
		return fmt.Errorf("circuit: recorded %d measurements but NumMeas=%d", meas, c.NumMeas)
	}
	if nextDet != c.NumDetectors {
		return fmt.Errorf("circuit: %d detectors emitted but NumDetectors=%d", nextDet, c.NumDetectors)
	}
	if maxObs >= c.NumObs {
		return fmt.Errorf("circuit: observable index %d but NumObs=%d", maxObs, c.NumObs)
	}
	return nil
}
