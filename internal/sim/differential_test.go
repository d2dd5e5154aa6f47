package sim

import (
	"fmt"
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/rng"
)

// fuzzCircuit turns b into a circuit on at most 6 qubits: b[0] picks the
// qubit count, then each instruction takes an opcode byte (whose high
// nibble picks the probability) and one byte per operand. The opcodes
// cover what no generated circuit uses (S, CZ, SWAP, RX, MX, Y_ERROR,
// readout flips, CX pairs sharing a qubit), and DETECTOR and
// OBSERVABLE_INCLUDE pick random earlier records. It is a copy of the
// generator internal/dem fuzzes its extractor with.
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

// FuzzProgramMatchesReference: on small random circuits over every opcode,
// a Program samples the same detector and observable lanes as the op table
// that shared its slices with the circuit, batch by batch, at 1, 70 and
// 330 shots: one word, a ragged word and a ragged second batch.
func FuzzProgramMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{3, 0x16, 0, 0x1a, 1, 2, 0, 1, 0x08, 0, 0x0f, 1, 0, 0x08, 1, 0x0f, 2, 0, 1}, uint64(2))
	f.Add([]byte{4, 0x1e, 0, 1, 0x02, 1, 2, 0x03, 0, 1, 2, 0x09, 0, 1, 0x0f, 2, 0, 1, 0x0f, 0, 1, 1}, uint64(3))
	f.Add([]byte{5, 0x3b, 2, 0x04, 2, 3, 0x05, 0, 4, 0x01, 2, 0x38, 2, 0x0f, 0, 0, 0x1d, 3, 0x07, 1, 0x48, 1, 0x0f, 1, 0, 0, 0x0f, 3, 1, 4}, uint64(4))
	f.Add([]byte{2, 0x2b, 0, 0x2e, 0, 0, 0x00, 1, 0x19, 0, 1, 0x08, 0, 0x0f, 0, 0, 0x0f, 1, 1, 0, 0x0f, 2, 0, 1, 0x0f, 0, 0, 0}, uint64(5))
	f.Add([]byte{4, 0x26, 0, 0x37, 1, 0x2a, 2, 0x1b, 3, 0x2c, 0, 0x3d, 1, 0x4e, 2, 3, 0x18, 0, 0x19, 1, 2, 0x0f, 0, 0, 0x0f, 1, 1, 2, 0x0f, 2, 0, 0, 1}, uint64(6))
	f.Fuzz(func(t *testing.T, b []byte, seed uint64) {
		c, err := fuzzCircuit(b)
		if err != nil {
			t.Fatalf("generator built an invalid circuit: %v", err)
		}
		for _, shots := range []int{1, 70, 330} {
			if diff := sampleDiff(c, seed, shots); diff != "" {
				t.Fatalf("%d shots: %s\n%s", shots, diff, c)
			}
		}
	})
}

// sampleDiff samples shots trajectories of c with a Program and with the
// reference op table from the same seed and describes the first lane that
// differs, or returns "" when every batch agrees.
func sampleDiff(c *circuit.Circuit, seed uint64, shots int) string {
	type batch struct {
		lanes []Lane // detectors, then observables
		shots int
	}
	record := func(out *[]batch) func(BatchResult) bool {
		return func(b BatchResult) bool {
			lanes := append(append([]Lane(nil), b.Detectors...), b.Observables...)
			*out = append(*out, batch{lanes, b.Shots})
			return true
		}
	}
	var got, want []batch
	Compile(c).NewSimulator(rng.New(seed)).SampleWhile(shots, record(&got))
	referenceCompile(c).newSimulator(rng.New(seed)).sampleWhile(shots, record(&want))
	if len(got) != len(want) {
		return fmt.Sprintf("%d batches, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].shots != want[i].shots {
			return fmt.Sprintf("batch %d holds %d shots, reference %d", i, got[i].shots, want[i].shots)
		}
		for l := range want[i].lanes {
			if got[i].lanes[l] != want[i].lanes[l] {
				return fmt.Sprintf("batch %d lane %d is %x, reference %x", i, l, got[i].lanes[l], want[i].lanes[l])
			}
		}
	}
	return ""
}
