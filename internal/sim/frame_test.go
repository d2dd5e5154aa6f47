package sim

import (
	"caliqec/internal/circuit"
	"caliqec/internal/rng"
	"math"
	"math/bits"
	"testing"
)

// buildRepCode returns a 3-qubit bit-flip repetition-code memory circuit
// with the given data X-error rate: Z0Z1 and Z1Z2 measured via two ancillas
// for `rounds` rounds.
func buildRepCode(rounds int, p float64) *circuit.Circuit {
	b := circuit.NewBuilder(5) // data 0,1,2; ancillas 3,4
	b.Reset(0, 0, 1, 2)
	var prev []int
	for r := 0; r < rounds; r++ {
		b.XError(p, 0, 1, 2)
		b.Reset(0, 3, 4)
		b.CX(0, 3, 1, 3)
		b.CX(1, 4, 2, 4)
		recs := b.M(0, 3, 4)
		if r == 0 {
			b.Detector(recs[0])
			b.Detector(recs[1])
		} else {
			b.Detector(prev[0], recs[0])
			b.Detector(prev[1], recs[1])
		}
		prev = recs
	}
	dr := b.M(0, 0, 1, 2)
	b.Detector(prev[0], dr[0], dr[1])
	b.Detector(prev[1], dr[1], dr[2])
	b.Observable(0, dr[0])
	return b.Build()
}

func TestFrameDetectsInjectedErrors(t *testing.T) {
	// With p=1 on a single qubit the detectors adjacent to it fire every
	// shot deterministically.
	b := circuit.NewBuilder(5)
	b.Reset(0, 0, 1, 2)
	b.XError(1, 0) // always flip qubit 0
	b.Reset(0, 3, 4)
	b.CX(0, 3, 1, 3)
	b.CX(1, 4, 2, 4)
	recs := b.M(0, 3, 4)
	b.Detector(recs[0])
	b.Detector(recs[1])
	dr := b.M(0, 0, 1, 2)
	b.Observable(0, dr[0])
	c := b.Build()
	fs := NewFrameSimulator(c, rng.New(1))
	fs.Sample(64, func(res BatchResult) {
		if res.Detectors[0][0] != ^uint64(0) {
			t.Error("detector 0 should fire on every shot")
		}
		if onesLane(res.Detectors[1]) != 0 {
			t.Error("detector 1 should never fire")
		}
		if res.Observables[0][0] != ^uint64(0) {
			t.Error("observable should flip every shot")
		}
	})
}

// TestFrameMatchesBinomial: the marginal firing rate of a single detector
// under a single X error channel must match the analytic probability.
func TestFrameMatchesBinomial(t *testing.T) {
	p := 0.07
	b := circuit.NewBuilder(2)
	b.Reset(0, 0)
	b.XError(p, 0)
	b.Reset(0, 1)
	b.CX(0, 1)
	recs := b.M(0, 1)
	b.Detector(recs[0])
	c := b.Build()
	fs := NewFrameSimulator(c, rng.New(99))
	const shots = 200000
	fired := 0
	fs.Sample(shots, func(res BatchResult) {
		fired += onesLane(res.Detectors[0])
	})
	got := float64(fired) / shots
	if math.Abs(got-p) > 0.004 {
		t.Errorf("detector rate %.4f, want %.4f", got, p)
	}
}

// TestFrameRepCodeRates samples a 4-round distance-3 repetition code with
// X_ERROR(p) on every data qubit each round and checks one middle-round
// detector's firing rate against 2p(1-p). It runs the frame simulator only;
// no tableau cross-check is involved.
func TestFrameRepCodeRates(t *testing.T) {
	p := 0.02
	rounds := 4
	c := buildRepCode(rounds, p)
	fs := NewFrameSimulator(c, rng.New(5))
	const shots = 100000
	counts := make([]int, c.NumDetectors)
	fs.Sample(shots, func(res BatchResult) {
		for i := range res.Detectors {
			counts[i] += onesLane(res.Detectors[i])
		}
	})
	// Middle-round detectors compare two syndrome measurements; detector 2
	// (round 1, stabilizer Z0Z1) fires if exactly one of q0,q1 flipped in
	// round 1: 2p(1-p) to first order.
	want := 2 * p * (1 - p)
	got := float64(counts[2]) / shots
	if math.Abs(got-want) > 0.005 {
		t.Errorf("detector 2 rate %.4f, want ≈ %.4f", got, want)
	}
}

func TestMeasurementErrorTimelike(t *testing.T) {
	// A measurement flip shows up in two consecutive time-like detectors.
	b := circuit.NewBuilder(2)
	b.Reset(0, 0)
	var prev []int
	for r := 0; r < 3; r++ {
		b.Reset(0, 1)
		b.CX(0, 1)
		var recs []int
		if r == 1 {
			recs = b.M(1.0, 1) // always misread in round 1
		} else {
			recs = b.M(0, 1)
		}
		if r > 0 {
			b.Detector(prev[0], recs[0])
		}
		prev = recs
	}
	c := b.Build()
	fs := NewFrameSimulator(c, rng.New(1))
	fs.Sample(64, func(res BatchResult) {
		if res.Detectors[0][0] != ^uint64(0) || res.Detectors[1][0] != ^uint64(0) {
			t.Error("measurement flip must fire both adjacent time-like detectors")
		}
	})
}

func TestDepolarize2MarginalRate(t *testing.T) {
	// DEPOLARIZE2(p): qubit A suffers an X-component with probability
	// p·8/15 (8 of 15 Paulis have X or Y on A).
	p := 0.09
	b := circuit.NewBuilder(3)
	b.Reset(0, 0, 1)
	b.Depolarize2(p, 0, 1)
	b.Reset(0, 2)
	b.CX(0, 2)
	recs := b.M(0, 2)
	b.Detector(recs[0])
	c := b.Build()
	fs := NewFrameSimulator(c, rng.New(1234))
	const shots = 300000
	fired := 0
	fs.Sample(shots, func(res BatchResult) {
		fired += onesLane(res.Detectors[0])
	})
	got := float64(fired) / shots
	want := p * 8 / 15
	if math.Abs(got-want) > 0.003 {
		t.Errorf("X-marginal of DEPOLARIZE2 = %.4f, want %.4f", got, want)
	}
}

func TestPartialBatchMasking(t *testing.T) {
	b := circuit.NewBuilder(1)
	b.Reset(0, 0)
	b.XError(1, 0)
	recs := b.M(0, 0)
	b.Detector(recs[0])
	c := b.Build()
	fs := NewFrameSimulator(c, rng.New(1))
	total := 0
	fs.Sample(70, func(res BatchResult) {
		total += onesLane(res.Detectors[0])
	})
	if total != 70 {
		t.Errorf("got %d fired shots, want exactly 70 (partial batch must be masked)", total)
	}
}

// onesLane counts the set bits across every word of a lane.
func onesLane(l Lane) int {
	n := 0
	for w := 0; w < LaneWords; w++ {
		n += bits.OnesCount64(l[w])
	}
	return n
}

// collectWords samples shots and returns every detector/observable lane word
// in batch order, copying out of the simulator's reused scratch.
func collectWords(fs *FrameSimulator, shots int) []uint64 {
	var out []uint64
	fs.Sample(shots, func(res BatchResult) {
		for i := range res.Detectors {
			out = append(out, res.Detectors[i][:]...)
		}
		for i := range res.Observables {
			out = append(out, res.Observables[i][:]...)
		}
	})
	return out
}

// TestResetReproducesStream: a pooled simulator rebound to a fresh generator
// with Reset must produce exactly the words a newly constructed simulator
// does — the contract internal/mc's per-entry simulator pool relies on.
func TestResetReproducesStream(t *testing.T) {
	c := buildRepCode(3, 0.02)
	fresh := NewFrameSimulator(c, rng.New(7))
	want := collectWords(fresh, 500)

	reused := NewFrameSimulator(c, rng.New(42))
	collectWords(reused, 300) // dirty the frames, records and scratch
	reused.Reset(rng.New(7))
	got := collectWords(reused, 500)

	if len(got) != len(want) {
		t.Fatalf("word count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %#x after Reset, want %#x", i, got[i], want[i])
		}
	}
}

// TestElisionPreservesStream: ticks and zero-probability noise channels
// compile to nothing; interleaving them through a circuit must not perturb
// the randomness stream, so the sampled words stay bit-identical.
func TestElisionPreservesStream(t *testing.T) {
	build := func(padded bool) *circuit.Circuit {
		b := circuit.NewBuilder(5)
		pad := func() {
			if padded {
				b.Tick()
				b.XError(0, 0, 1, 2)
				b.Depolarize1(0, 3)
				b.ZError(0, 4)
			}
		}
		b.Reset(0, 0, 1, 2)
		pad()
		var prev []int
		for r := 0; r < 3; r++ {
			b.XError(0.03, 0, 1, 2)
			pad()
			b.Reset(0, 3, 4)
			b.CX(0, 3, 1, 3)
			pad()
			b.CX(1, 4, 2, 4)
			recs := b.M(0.01, 3, 4)
			pad()
			if r == 0 {
				b.Detector(recs[0])
				b.Detector(recs[1])
			} else {
				b.Detector(prev[0], recs[0])
				b.Detector(prev[1], recs[1])
			}
			prev = recs
		}
		dr := b.M(0, 0, 1, 2)
		b.Detector(prev[0], dr[0], dr[1])
		b.Detector(prev[1], dr[1], dr[2])
		b.Observable(0, dr[0])
		return b.Build()
	}
	plain := collectWords(NewFrameSimulator(build(false), rng.New(11)), 640)
	padded := collectWords(NewFrameSimulator(build(true), rng.New(11)), 640)
	for i := range plain {
		if plain[i] != padded[i] {
			t.Fatalf("word %d differs with elided instructions: %#x vs %#x", i, plain[i], padded[i])
		}
	}
}

// TestSampleDoesNotAllocate: after construction, repeated Sample calls reuse
// the struct-owned det/obs scratch — the steady-state sampling loop must be
// allocation-free.
func TestSampleDoesNotAllocate(t *testing.T) {
	c := buildRepCode(3, 0.02)
	fs := NewFrameSimulator(c, rng.New(3))
	fs.Sample(64, func(BatchResult) {})
	allocs := testing.AllocsPerRun(10, func() {
		fs.Sample(256, func(BatchResult) {})
	})
	if allocs != 0 {
		t.Errorf("Sample allocated %.1f objects per run, want 0", allocs)
	}
}
