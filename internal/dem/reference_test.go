package dem

// The forward-propagation extractor this package used before the backward
// sweep: every elementary fault is pushed through the rest of the circuit
// on a map-backed Pauli frame, O(faults × instructions). It is kept only as
// the oracle that TestFromCircuitMatchesReference and
// FuzzFromCircuitMatchesReference compare FromCircuit against. One
// deliberate change: the per-qubit split of a two-qubit part walks its
// qubits in ascending order. It used to range over a map, whose order Go
// randomises, so the mechanism order was not deterministic when both
// halves were new symptoms.

import (
	"caliqec/internal/circuit"
	"fmt"
	"sort"
)

// pauliBits is a sparse frame: qubit -> (x,z) bits packed as 2 bits.
type pauliBits map[int]uint8

// referenceFromCircuit extracts the DEM of c by forward propagation.
func referenceFromCircuit(c *circuit.Circuit) (*Model, error) {
	ex := newRefExtractor(c)
	return ex.run()
}

type refExtractor struct {
	c *circuit.Circuit
	// measToDet[r] lists detectors containing measurement record bit r.
	measToDet [][]int
	// measToObs[r] is the observable mask of record bit r.
	measToObs []uint64
	// measBefore[i] is the number of measurement record bits produced by
	// instructions strictly before instruction i.
	measBefore []int
	// merged accumulates mechanisms keyed by canonical symptom.
	merged map[string]*Mechanism
	order  []string // insertion order for deterministic output
}

func newRefExtractor(c *circuit.Circuit) *refExtractor {
	ex := &refExtractor{
		c:         c,
		measToDet: make([][]int, c.NumMeas),
		measToObs: make([]uint64, c.NumMeas),
		merged:    map[string]*Mechanism{},
	}
	ex.measBefore = make([]int, len(c.Instructions)+1)
	for i, in := range c.Instructions {
		ex.measBefore[i+1] = ex.measBefore[i]
		switch in.Op {
		case circuit.OpM, circuit.OpMX:
			ex.measBefore[i+1] += len(in.Targets)
		case circuit.OpDetector:
			for _, r := range in.Recs {
				ex.measToDet[r] = append(ex.measToDet[r], in.Index)
			}
		case circuit.OpObservable:
			for _, r := range in.Recs {
				ex.measToObs[r] ^= 1 << uint(in.Index)
			}
		}
	}
	return ex
}

func (ex *refExtractor) run() (*Model, error) {
	for idx, in := range ex.c.Instructions {
		switch in.Op {
		case circuit.OpXError:
			for _, q := range in.Targets {
				if err := ex.addPauli(idx, pauliBits{q: bitX}, in.Arg); err != nil {
					return nil, err
				}
			}
		case circuit.OpZError:
			for _, q := range in.Targets {
				if err := ex.addPauli(idx, pauliBits{q: bitZ}, in.Arg); err != nil {
					return nil, err
				}
			}
		case circuit.OpYError:
			for _, q := range in.Targets {
				if err := ex.addPauli(idx, pauliBits{q: bitX | bitZ}, in.Arg); err != nil {
					return nil, err
				}
			}
		case circuit.OpDepolarize1:
			for _, q := range in.Targets {
				p := in.Arg / 3
				for _, pb := range []uint8{bitX, bitX | bitZ, bitZ} {
					if err := ex.addPauli(idx, pauliBits{q: pb}, p); err != nil {
						return nil, err
					}
				}
			}
		case circuit.OpDepolarize2:
			for i := 0; i < len(in.Targets); i += 2 {
				a, b := in.Targets[i], in.Targets[i+1]
				p := in.Arg / 15
				for k := 1; k < 16; k++ {
					pa, pb := uint8(k&3), uint8(k>>2)
					f := pauliBits{}
					if pa != 0 {
						f[a] = pa
					}
					if pb != 0 {
						f[b] = pb
					}
					if err := ex.addPauli(idx, f, p); err != nil {
						return nil, err
					}
				}
			}
		case circuit.OpReset:
			if in.Arg > 0 {
				for _, q := range in.Targets {
					if err := ex.addPauli(idx, pauliBits{q: bitX}, in.Arg); err != nil {
						return nil, err
					}
				}
			}
		case circuit.OpResetX:
			if in.Arg > 0 {
				for _, q := range in.Targets {
					if err := ex.addPauli(idx, pauliBits{q: bitZ}, in.Arg); err != nil {
						return nil, err
					}
				}
			}
		case circuit.OpM, circuit.OpMX:
			if in.Arg > 0 {
				rec := ex.measBefore[idx]
				for j := range in.Targets {
					if err := ex.addMeasFlip(rec+j, in.Arg); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	m := &Model{
		NumDetectors:   ex.c.NumDetectors,
		NumObs:         ex.c.NumObs,
		NumRounds:      ex.c.NumRounds,
		DetectorRounds: ex.c.DetectorRounds(),
		DetectorQubits: ex.c.DetectorQubits(),
	}
	for _, k := range ex.order {
		mech := ex.merged[k]
		if mech.P > 0 {
			m.Mechanisms = append(m.Mechanisms, *mech)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// addPauli propagates the elementary Pauli error f occurring immediately
// after instruction idx, and records the resulting mechanism (decomposing
// into X and Z parts when the full symptom is non-graph-like).
func (ex *refExtractor) addPauli(idx int, f pauliBits, p float64) error {
	if p <= 0 {
		return nil
	}
	dets, obs := ex.propagate(idx, f)
	if len(dets) <= 2 {
		ex.merge(dets, obs, p)
		return nil
	}
	// Decompose into X and Z components; frame propagation is linear so the
	// two partial symptoms XOR to the full one.
	xPart, zPart := pauliBits{}, pauliBits{}
	for q, pb := range f {
		if pb&bitX != 0 {
			xPart[q] = bitX
		}
		if pb&bitZ != 0 {
			zPart[q] = bitZ
		}
	}
	for _, part := range []pauliBits{xPart, zPart} {
		if len(part) == 0 {
			continue
		}
		d, o := ex.propagate(idx, part)
		if len(d) > 2 {
			// Final fallback: per-qubit elementary split, in ascending
			// qubit order.
			if len(part) > 1 {
				qs := make([]int, 0, len(part))
				for q := range part {
					qs = append(qs, q)
				}
				sort.Ints(qs)
				ok := true
				for _, q := range qs {
					dd, oo := ex.propagate(idx, pauliBits{q: part[q]})
					if len(dd) > 2 {
						ok = false
						break
					}
					ex.merge(dd, oo, p)
				}
				if ok {
					continue
				}
			}
			return fmt.Errorf("dem: non-graph-like mechanism at instruction %d (%d detectors)", idx, len(d))
		}
		ex.merge(d, o, p)
	}
	return nil
}

// addMeasFlip records the mechanism of a classical readout flip of record r.
func (ex *refExtractor) addMeasFlip(r int, p float64) error {
	dets := append([]int(nil), ex.measToDet[r]...)
	sort.Ints(dets)
	dets = dedupXor(dets)
	if len(dets) > 2 {
		return fmt.Errorf("dem: measurement record %d appears in %d detectors", r, len(dets))
	}
	ex.merge(dets, ex.measToObs[r], p)
	return nil
}

// propagate walks the circuit from instruction idx+1 with initial frame f
// and returns the flipped detectors (sorted, XOR-reduced) and observables.
func (ex *refExtractor) propagate(idx int, f pauliBits) ([]int, uint64) {
	frame := pauliBits{}
	for q, pb := range f {
		frame[q] = pb
	}
	var flippedRecs []int
	meas := ex.measBefore[idx]
	// Account for measurements inside instruction idx itself: an error
	// "after" a measurement instruction cannot affect its own outcomes.
	if in := ex.c.Instructions[idx]; in.Op == circuit.OpM || in.Op == circuit.OpMX {
		meas += len(in.Targets)
	}
	for i := idx + 1; i < len(ex.c.Instructions); i++ {
		in := ex.c.Instructions[i]
		switch in.Op {
		case circuit.OpH:
			for _, q := range in.Targets {
				if pb, ok := frame[q]; ok {
					frame[q] = (pb&bitX)>>1 | (pb&bitZ)<<1
				}
			}
		case circuit.OpS:
			for _, q := range in.Targets {
				if pb, ok := frame[q]; ok && pb&bitX != 0 {
					frame[q] = pb ^ bitZ
					if frame[q] == 0 {
						delete(frame, q)
					}
				}
			}
		case circuit.OpCX:
			for j := 0; j < len(in.Targets); j += 2 {
				c, t := in.Targets[j], in.Targets[j+1]
				if frame[c]&bitX != 0 {
					toggle(frame, t, bitX)
				}
				if frame[t]&bitZ != 0 {
					toggle(frame, c, bitZ)
				}
			}
		case circuit.OpCZ:
			for j := 0; j < len(in.Targets); j += 2 {
				a, b := in.Targets[j], in.Targets[j+1]
				if frame[a]&bitX != 0 {
					toggle(frame, b, bitZ)
				}
				if frame[b]&bitX != 0 {
					toggle(frame, a, bitZ)
				}
			}
		case circuit.OpSwap:
			for j := 0; j < len(in.Targets); j += 2 {
				a, b := in.Targets[j], in.Targets[j+1]
				fa, fb := frame[a], frame[b]
				setOrDelete(frame, a, fb)
				setOrDelete(frame, b, fa)
			}
		case circuit.OpReset, circuit.OpResetX:
			for _, q := range in.Targets {
				delete(frame, q)
			}
		case circuit.OpM:
			for _, q := range in.Targets {
				if frame[q]&bitX != 0 {
					flippedRecs = append(flippedRecs, meas)
				}
				// Z component is destroyed by the collapse.
				if pb, ok := frame[q]; ok {
					setOrDelete(frame, q, pb&bitX)
				}
				meas++
			}
		case circuit.OpMX:
			for _, q := range in.Targets {
				if frame[q]&bitZ != 0 {
					flippedRecs = append(flippedRecs, meas)
				}
				if pb, ok := frame[q]; ok {
					setOrDelete(frame, q, pb&bitZ)
				}
				meas++
			}
		}
		if len(frame) == 0 {
			// The frame has been absorbed; no further records can flip.
			break
		}
	}
	var dets []int
	var obs uint64
	for _, r := range flippedRecs {
		dets = append(dets, ex.measToDet[r]...)
		obs ^= ex.measToObs[r]
	}
	sort.Ints(dets)
	return dedupXor(dets), obs
}

func toggle(frame pauliBits, q int, bit uint8) {
	pb := frame[q] ^ bit
	setOrDelete(frame, q, pb)
}

func setOrDelete(frame pauliBits, q int, pb uint8) {
	if pb == 0 {
		delete(frame, q)
	} else {
		frame[q] = pb
	}
}

// dedupXor removes pairs of equal values from a sorted slice (XOR
// semantics: a detector flipped twice is not flipped).
func dedupXor(sorted []int) []int {
	out := sorted[:0]
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, sorted[i])
		}
		i = j
	}
	if len(out) == 0 {
		return nil
	}
	return append([]int(nil), out...)
}

// merge folds a mechanism into the accumulator, combining probabilities of
// identical symptoms as independent sources: p ← p₁(1−p₂) + p₂(1−p₁).
func (ex *refExtractor) merge(dets []int, obs uint64, p float64) {
	if len(dets) == 0 && obs == 0 {
		return // invisible error: no detectors, no logical effect
	}
	key := fmt.Sprint(dets, obs)
	if m, ok := ex.merged[key]; ok {
		m.P = m.P*(1-p) + p*(1-m.P)
		return
	}
	ex.merged[key] = &Mechanism{Detectors: append([]int(nil), dets...), ObsMask: obs, P: p}
	ex.order = append(ex.order, key)
}
