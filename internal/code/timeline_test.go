package code_test

import (
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/lattice"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
)

// timelineEpochs builds the canonical calibration cycle on a distance-d
// patch: pristine → centre data qubit isolated through the deformation
// instruction set → reintegrated, three rounds each.
func timelineEpochs(t *testing.T, kind lattice.Kind, d int) []code.Epoch {
	t.Helper()
	return []code.Epoch{
		{Patch: newPatch(kind, d), Rounds: 3},
		{Patch: isolateCentre(t, kind, d), Rounds: 3},
		{Patch: newPatch(kind, d), Rounds: 3},
	}
}

// TestTimelineNoiselessDeterministic is the acid test for gauge-fixing
// across deformation transitions: a full isolate→reintegrate cycle must
// produce only deterministic, zero-valued detectors on a noiseless run.
func TestTimelineNoiselessDeterministic(t *testing.T) {
	r := rng.New(3)
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		for _, basis := range []lattice.Basis{lattice.BasisZ, lattice.BasisX} {
			epochs := timelineEpochs(t, kind, 5)
			c, err := code.TimelineCircuit(epochs, code.TimelineOptions{Basis: basis})
			if err != nil {
				t.Fatalf("%v %v: %v", kind, basis, err)
			}
			for trial := 0; trial < 3; trial++ {
				res, err := sim.RunNoiseless(c, r)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range res.Detectors {
					if v {
						t.Fatalf("%v memory-%v: timeline detector %d fired noiselessly", kind, basis, i)
					}
				}
				if res.Observables[0] {
					t.Fatalf("%v memory-%v: timeline observable not deterministic", kind, basis)
				}
			}
		}
	}
}

// TestTimelineHasTransitionDetectors: the circuit must carry detectors
// linking epochs (more detectors than three isolated memory experiments
// would have minus their initials would imply).
func TestTimelineHasTransitionDetectors(t *testing.T) {
	epochs := timelineEpochs(t, lattice.Square, 5)
	c, err := code.TimelineCircuit(epochs, code.TimelineOptions{Basis: lattice.BasisZ})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDetectors < 24*9-10 {
		t.Errorf("only %d detectors; transitions appear to drop most comparisons", c.NumDetectors)
	}
	if c.NumObs != 1 {
		t.Errorf("%d observables", c.NumObs)
	}
}

// TestTimelineRejectsMovedLogical: deforming a qubit on the logical support
// moves the representative; TimelineCircuit must refuse.
func TestTimelineRejectsMovedLogical(t *testing.T) {
	pristine := newPatch(lattice.Square, 5)
	moved := newPatch(lattice.Square, 5)
	moved.LogicalZ = append([]int(nil), moved.LogicalZ[1:]...) // corrupt support
	_, err := code.TimelineCircuit([]code.Epoch{{Patch: pristine, Rounds: 2}, {Patch: moved, Rounds: 2}}, code.TimelineOptions{Basis: lattice.BasisZ})
	if err == nil {
		t.Fatal("moved logical accepted")
	}
}

// TestTimelineDataIdleChannel: in every round of an epoch, each data qubit
// of that epoch idles through exactly one DEPOLARIZE1 at its own 1Q-gate
// rate, and a data qubit isolated for the epoch gets none — the noise the
// static memory circuit applies, carried through the deformation. The
// shapes are the benchmark's calibration cycles.
func TestTimelineDataIdleChannel(t *testing.T) {
	for _, tc := range []struct {
		kind lattice.Kind
		d    int
	}{{lattice.Square, 5}, {lattice.HeavyHex, 3}} {
		epochs := timelineEpochs(t, tc.kind, tc.d)
		lat := epochs[0].Patch.Lat
		// A distinct 1Q rate per data qubit, so a channel at another
		// qubit's rate cannot pass.
		nm := noise.NewMap(1e-3)
		for _, q := range lat.DataID {
			nm.Gate1Q[q] = 1e-3 * (1 + float64(q)/128)
		}
		c, err := code.TimelineCircuit(epochs, code.TimelineOptions{Basis: lattice.BasisZ, Noise: nm})
		if err != nil {
			t.Fatalf("%v d=%d: %v", tc.kind, tc.d, err)
		}

		// Ticks cut the circuit into segments: the data reset, each epoch's
		// rounds with a transition segment before every epoch but the
		// first, and the final readout. want holds each round segment's
		// data qubits, nil for the others.
		want := []map[int]bool{nil}
		for i, e := range epochs {
			if i > 0 {
				want = append(want, nil)
			}
			_, ids := e.Patch.DataIndex()
			present := map[int]bool{}
			for _, q := range ids {
				present[q] = true
			}
			for r := 0; r < e.Rounds; r++ {
				want = append(want, present)
			}
		}
		want = append(want, nil)

		seg := 0
		idle := map[int]int{}
		check := func() {
			for _, q := range lat.DataID {
				n := 0
				if want[seg][q] {
					n = 1
				}
				if idle[q] != n {
					t.Errorf("%v d=%d: segment %d: data qubit %d has %d idle channels, want %d", tc.kind, tc.d, seg, q, idle[q], n)
				}
			}
		}
		for _, in := range c.Instructions {
			if in.Op == circuit.OpTick {
				check()
				seg++
				idle = map[int]int{}
				if seg >= len(want) {
					t.Fatalf("%v d=%d: more than %d tick-delimited segments", tc.kind, tc.d, len(want))
				}
				continue
			}
			if in.Op != circuit.OpDepolarize1 {
				continue
			}
			for _, q := range in.Targets {
				if lat.Qubit(q).Role != lattice.RoleData {
					continue
				}
				idle[q]++
				if in.Arg != nm.Gate1(q) { //lint:allow floateq the channel must carry the model's rate exactly
					t.Errorf("%v d=%d: segment %d: data qubit %d idles at %g, want Gate1 %g", tc.kind, tc.d, seg, q, in.Arg, nm.Gate1(q))
				}
			}
		}
		check()
		if seg != len(want)-1 {
			t.Errorf("%v d=%d: %d tick-delimited segments, want %d", tc.kind, tc.d, seg+1, len(want))
		}
	}
}
