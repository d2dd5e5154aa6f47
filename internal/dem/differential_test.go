package dem

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
)

// diffCase is one circuit the backward sweep must extract exactly as the
// forward-propagation oracle does.
type diffCase struct {
	name  string
	short bool // part of the -short subset
	build func() (*circuit.Circuit, error)
}

func memoryCase(name string, short bool, lat func() *lattice.Lattice, basis lattice.Basis, noise code.NoiseModel) diffCase {
	return diffCase{name, short, func() (*circuit.Circuit, error) {
		p := code.NewPatch(lat())
		return p.MemoryCircuit(code.MemoryOptions{Rounds: lat().D(), Basis: basis, Noise: noise})
	}}
}

// interiorData lists the data qubits off the patch boundary, in coordinate
// order.
func interiorData(lat *lattice.Lattice) []int {
	var coords [][2]int
	for rc := range lat.DataID {
		if rc[0] > 0 && rc[1] > 0 && rc[0] < lat.Rows-1 && rc[1] < lat.Cols-1 {
			coords = append(coords, rc)
		}
	}
	sort.Slice(coords, func(a, b int) bool {
		if coords[a][0] != coords[b][0] {
			return coords[a][0] < coords[b][0]
		}
		return coords[a][1] < coords[b][1]
	})
	qs := make([]int, len(coords))
	for i, rc := range coords {
		qs[i] = lat.DataID[rc]
	}
	return qs
}

// timelineCases are calibration events: qubit q isolated, then
// reintegrated, three rounds per epoch (pristine → isolated →
// reintegrated), one per interior data qubit.
func timelineCases(name string, lat func() *lattice.Lattice, shortFirst bool) []diffCase {
	var cases []diffCase
	for i, q := range interiorData(lat()) {
		q := q
		cases = append(cases, diffCase{fmt.Sprintf("%s/q%d", name, q), shortFirst && i == 0, func() (*circuit.Circuit, error) {
			df := deform.NewDeformer(code.NewPatch(lat()))
			if _, err := df.IsolateQubit(q, "cal"); err != nil {
				return nil, err
			}
			return code.TimelineCircuit([]code.Epoch{
				{Patch: code.NewPatch(lat()), Rounds: 3},
				{Patch: df.Patch, Rounds: 3},
				{Patch: code.NewPatch(lat()), Rounds: 3},
			}, code.TimelineOptions{Basis: lattice.BasisZ, Noise: code.UniformNoise(2.5e-3)})
		}})
	}
	return cases
}

func diffCases() []diffCase {
	sq := func(d int) func() *lattice.Lattice { return func() *lattice.Lattice { return lattice.NewSquare(d) } }
	hh := func(d int) func() *lattice.Lattice { return func() *lattice.Lattice { return lattice.NewHeavyHex(d) } }
	u := code.UniformNoise(1e-3)
	cases := []diffCase{
		memoryCase("square-d3-Z", true, sq(3), lattice.BasisZ, u),
		memoryCase("square-d3-X", true, sq(3), lattice.BasisX, u),
		memoryCase("square-d5-Z", false, sq(5), lattice.BasisZ, u),
		memoryCase("square-d5-X", false, sq(5), lattice.BasisX, u),
		memoryCase("square-d7-Z", false, sq(7), lattice.BasisZ, u),
		memoryCase("square-d7-X", false, sq(7), lattice.BasisX, u),
		memoryCase("heavyhex-d3-Z", true, hh(3), lattice.BasisZ, u),
		memoryCase("heavyhex-d5-Z", false, hh(5), lattice.BasisZ, u),
		memoryCase("square-d3-hot", true, sq(3), lattice.BasisZ, code.HotQubit{Base: u, Qubit: 4, P: 3e-2}),
	}
	cases = append(cases, timelineCases("timeline-square-d5", sq(5), true)...)
	cases = append(cases, timelineCases("timeline-heavyhex-d3", hh(3), true)...)
	return cases
}

// TestFromCircuitMatchesReference: on every circuit family the repository
// generates, the backward sweep returns the very model forward propagation
// of every fault builds — same mechanisms in the same order, every merged
// probability bit for bit. -short runs one circuit of each kind.
func TestFromCircuitMatchesReference(t *testing.T) {
	for _, tc := range diffCases() {
		if testing.Short() && !tc.short {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceFromCircuit(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromCircuit(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Mechanisms) == 0 {
				t.Fatal("reference model has no mechanisms")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("models differ:\n%s", modelDiff(got, want))
			}
		})
	}
}

// TestFromCircuitMatchesReferenceEdgeCases pins the paths generated
// circuits never take: a two-qubit part split qubit by qubit, a
// non-graph-like fault and a readout flip in three detectors (both
// extractors must report the earliest with the same error), and merged
// probabilities that cancel to zero.
func TestFromCircuitMatchesReferenceEdgeCases(t *testing.T) {
	// Data qubits 0 and 1 each copy their X onto two ancillas: X₀X₁ flips
	// four detectors, X₀ and X₁ two each.
	pairs := func(b *circuit.Builder) {
		b.Reset(0, 0, 1, 2, 3, 4, 5)
		b.Depolarize2(0.15, 0, 1)
		b.Depolarize2(0.15, 1, 0)
		b.CX(0, 2, 0, 3, 1, 4, 1, 5)
	}
	cases := []struct {
		name    string
		build   func(b *circuit.Builder)
		wantErr bool
	}{
		{"split", func(b *circuit.Builder) {
			pairs(b)
			r := b.M(0.01, 2, 3, 4, 5)
			for _, rec := range r {
				b.Detector(rec)
			}
			b.Observable(0, r[0])
		}, false},
		{"non-graph-like", func(b *circuit.Builder) {
			b.Reset(0, 0, 1, 2, 3, 4, 5)
			b.XError(0.1, 0)
			b.XError(0.2, 1)
			b.CX(0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 5)
			for _, rec := range b.M(0, 2, 3, 4, 5) {
				b.Detector(rec)
			}
		}, true},
		{"readout-in-three-detectors", func(b *circuit.Builder) {
			pairs(b)
			r := b.M(0.01, 2, 3)
			b.Detector(r[0])
			b.Detector(r[0], r[1])
			b.Detector(r[0])
		}, true},
		{"cancelling-probabilities", func(b *circuit.Builder) {
			b.Reset(0, 0, 1, 2)
			b.XError(1, 0)
			b.XError(1, 0)
			b.XError(0.3, 2)
			b.CX(0, 1)
			r := b.M(0, 1, 2)
			b.Detector(r[0])
			b.Detector(r[1])
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := circuit.NewBuilder(6)
			tc.build(b)
			c := b.Build()
			want, wantErr := referenceFromCircuit(c)
			got, gotErr := FromCircuit(c)
			if (wantErr != nil) != tc.wantErr {
				t.Fatalf("reference error %v, want error %v", wantErr, tc.wantErr)
			}
			if (gotErr != nil) != tc.wantErr || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("sweep error %v, reference error %v", gotErr, wantErr)
			}
			if !tc.wantErr && !reflect.DeepEqual(got, want) {
				t.Fatalf("models differ:\n%s", modelDiff(got, want))
			}
		})
	}
}

// modelDiff describes the first difference between two models.
func modelDiff(got, want *Model) string {
	if got.NumDetectors != want.NumDetectors || got.NumObs != want.NumObs || got.NumRounds != want.NumRounds {
		return fmt.Sprintf("shape: got %d/%d/%d, want %d/%d/%d detectors/observables/rounds",
			got.NumDetectors, got.NumObs, got.NumRounds, want.NumDetectors, want.NumObs, want.NumRounds)
	}
	for i := 0; i < len(got.Mechanisms) && i < len(want.Mechanisms); i++ {
		if !reflect.DeepEqual(got.Mechanisms[i], want.Mechanisms[i]) {
			return fmt.Sprintf("mechanism %d: got %+v, want %+v", i, got.Mechanisms[i], want.Mechanisms[i])
		}
	}
	if len(got.Mechanisms) != len(want.Mechanisms) {
		return fmt.Sprintf("got %d mechanisms, want %d", len(got.Mechanisms), len(want.Mechanisms))
	}
	return "detector rounds or qubits differ"
}

// fuzzCircuit turns b into a circuit on at most 6 qubits: b[0] picks the
// qubit count, then each instruction takes an opcode byte (whose high
// nibble picks the probability) and one byte per operand. The opcodes
// cover what no generated circuit uses (S, CZ, SWAP, RX, MX, Y_ERROR,
// readout flips, CX pairs sharing a qubit), and DETECTOR and
// OBSERVABLE_INCLUDE pick random earlier records.
func fuzzCircuit(b []byte) (*circuit.Circuit, error) {
	n := 2 // 2..6 qubits
	if len(b) > 0 {
		n += int(b[0]) % 5
	}
	bld := circuit.NewBuilder(n)
	probs := []float64{0, 0.01, 0.05, 0.125, 0.25, 0.5, 1}
	next := 1
	byteAt := func() int {
		if next >= len(b) {
			return 0
		}
		next++
		return int(b[next-1])
	}
	qubit := func() int { return byteAt() % n }
	other := func(a int) int { return (a + 1 + byteAt()%(n-1)) % n }
	pair := func() (int, int) {
		a := qubit()
		return a, other(a)
	}
	recs := func(k int) []int {
		m := bld.MeasCount()
		if m == 0 {
			return nil
		}
		seen := map[int]bool{}
		var rs []int
		for i := 0; i < k; i++ {
			r := byteAt() % m
			if !seen[r] {
				seen[r] = true
				rs = append(rs, r)
			}
		}
		return rs
	}
	ops := 0
	for next < len(b) && ops < 64 {
		ops++
		op := byteAt()
		p := probs[(op>>4)%len(probs)]
		switch op % 16 {
		case 0:
			bld.H(qubit())
		case 1:
			bld.S(qubit())
		case 2:
			a, c := pair()
			bld.CX(a, c)
		case 3:
			// Two CX pairs sharing a qubit in one instruction.
			a, c := pair()
			bld.CX(a, c, c, other(c))
		case 4:
			a, c := pair()
			bld.CZ(a, c)
		case 5:
			a, c := pair()
			bld.Swap(a, c)
		case 6:
			bld.Reset(p, qubit())
		case 7:
			bld.ResetX(p, qubit())
		case 8:
			bld.M(p, qubit())
		case 9:
			bld.MX(p, qubit(), qubit())
		case 10:
			bld.XError(p, qubit())
		case 11:
			bld.YError(p, qubit())
		case 12:
			bld.ZError(p, qubit())
		case 13:
			bld.Depolarize1(p, qubit())
		case 14:
			a, c := pair()
			bld.Depolarize2(p, a, c)
		case 15:
			if rs := recs(1 + byteAt()%3); len(rs) > 0 {
				if byteAt()%4 == 0 {
					bld.Observable(byteAt()%2, rs...)
				} else {
					bld.Detector(rs...)
				}
			}
		}
	}
	return bld.Finish()
}

// FuzzFromCircuitMatchesReference: on small random circuits over every
// opcode the two extractors fail together, with the same error, or return
// equal models. It is the only test of the reverse rules for the opcodes
// no generated circuit uses.
func FuzzFromCircuitMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x16, 0, 0x1a, 1, 2, 0, 1, 0x08, 0, 0x0f, 1, 0, 0x08, 1, 0x0f, 2, 0, 1})
	f.Add([]byte{4, 0x1e, 0, 1, 0x02, 1, 2, 0x03, 0, 1, 2, 0x09, 0, 1, 0x0f, 2, 0, 1, 0x0f, 0, 1, 1})
	f.Add([]byte{5, 0x3b, 2, 0x04, 2, 3, 0x05, 0, 4, 0x01, 2, 0x38, 2, 0x0f, 0, 0, 0x1d, 3, 0x07, 1, 0x48, 1, 0x0f, 1, 0, 0, 0x0f, 3, 1, 4})
	f.Add([]byte{2, 0x2b, 0, 0x2e, 0, 0, 0x00, 1, 0x19, 0, 1, 0x08, 0, 0x0f, 0, 0, 0x0f, 1, 1, 0, 0x0f, 2, 0, 1, 0x0f, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := fuzzCircuit(b)
		if err != nil {
			t.Fatalf("generator built an invalid circuit: %v", err)
		}
		want, wantErr := referenceFromCircuit(c)
		got, gotErr := FromCircuit(c)
		if (wantErr != nil) != (gotErr != nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("errors differ: reference %v, sweep %v\n%s", wantErr, gotErr, c)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("models differ: %s\nreference %s\nsweep %s\n%s", modelDiff(got, want), want, got, c)
		}
	})
}
