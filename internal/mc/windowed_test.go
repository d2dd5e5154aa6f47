package mc

import (
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/lattice"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
	"context"
	"math"
	"testing"
)

func windowedTestCircuit(t testing.TB, d, rounds int, p float64) *circuit.Circuit {
	t.Helper()
	c, err := code.NewPatch(lattice.NewSquare(d)).MemoryCircuit(
		code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWindowedFrameDecoderFullWindowMatchesWholeShot: with window >= rounds
// the windowed decoder never commits mid-stream, so its failure count over
// the sampled stream must equal Evaluate's bit-identically — the mc-level
// equivalence anchor for the windowed path.
func TestWindowedFrameDecoderFullWindowMatchesWholeShot(t *testing.T) {
	c := windowedTestCircuit(t, 3, 4, 3e-3)
	const shots = 4000
	eng := New(Options{})
	want, err := eng.Evaluate(context.Background(),
		Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 4, RNG: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := eng.AblateWindows(context.Background(),
		Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 4, RNG: rng.New(5)},
		[]int{c.NumRounds})
	if err != nil {
		t.Fatal(err)
	}
	if ab.Shots != shots {
		t.Fatalf("ablation sampled %d shots, want %d", ab.Shots, shots)
	}
	if ab.WholeFails != want.Failures {
		t.Fatalf("whole-shot path counted %d failures, Evaluate %d", ab.WholeFails, want.Failures)
	}
	if ab.WindowFails[0] != want.Failures {
		t.Fatalf("window=%d (full) counted %d failures, Evaluate %d", c.NumRounds, ab.WindowFails[0], want.Failures)
	}
	if want.Failures == 0 {
		t.Fatal("test vacuous: no failures at this noise level; raise p")
	}
}

// TestWindowedLERTolerance is the committed equivalence assertion from the
// issue: windowed LER for W >= 3 must match whole-shot LER within
// statistical tolerance. Whole-shot and windowed decoders score the same
// sampled shots, so the failure sets are strongly correlated; the tolerance
// below (5 sigma of the whole-shot count plus a small floor) is far wider
// than the residual window effect and far narrower than a real regression
// (e.g. dropped time-like matching, which multiplies the LER).
func TestWindowedLERTolerance(t *testing.T) {
	c := windowedTestCircuit(t, 3, 8, 3e-3)
	const shots = 6000
	eng := New(Options{})
	ab, err := eng.AblateWindows(context.Background(),
		Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 8, RNG: rng.New(21)},
		[]int{3, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if ab.WholeFails == 0 {
		t.Fatal("test vacuous: no whole-shot failures; raise p or shots")
	}
	tol := 5*math.Sqrt(float64(ab.WholeFails)) + 5
	for i, w := range ab.Windows {
		diff := math.Abs(float64(ab.WindowFails[i] - ab.WholeFails))
		t.Logf("W=%d: %d failures vs whole-shot %d (shots %d, tol %.1f)", w, ab.WindowFails[i], ab.WholeFails, shots, tol)
		if diff > tol {
			t.Errorf("W=%d: windowed failures %d vs whole-shot %d, diff %.0f exceeds tolerance %.1f",
				w, ab.WindowFails[i], ab.WholeFails, diff, tol)
		}
	}
}

// collectSyndromes transposes a batch into per-shot sorted syndromes.
func collectSyndromes(out *[][]int, b sim.BatchResult) error {
	for s := 0; s < b.Shots; s++ {
		var syn []int
		for di := range b.Detectors {
			if b.Detectors[di][s/64]>>uint(s%64)&1 == 1 {
				syn = append(syn, di)
			}
		}
		*out = append(*out, syn)
	}
	return nil
}

// TestWindowedFrameDecoderConcurrent: pooled windowed decoders under
// parallel callers must agree with a serial pass (run with -race in CI).
func TestWindowedFrameDecoderConcurrent(t *testing.T) {
	c := windowedTestCircuit(t, 3, 5, 2e-3)
	eng := New(Options{})
	wd, err := eng.WindowedFrameDecoder(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wd.NumRounds() != c.NumRounds || wd.Window() != 3 {
		t.Fatalf("dims: rounds=%d window=%d", wd.NumRounds(), wd.Window())
	}
	if wd.CircuitFingerprint() != c.Fingerprint() {
		t.Fatal("fingerprint mismatch")
	}
	var syndromes [][]int
	err = SampleChunks(context.Background(), Spec{Circuit: c, Shots: 512, Seed: 3}, func(b sim.BatchResult) error {
		return collectSyndromes(&syndromes, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(syndromes))
	for i, syn := range syndromes {
		want[i] = wd.DecodeFrame(syn)
	}
	const workers = 8
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			bad := 0
			for i, syn := range syndromes {
				if wd.DecodeFrame(syn) != want[i] {
					bad++
				}
			}
			done <- bad
		}()
	}
	for w := 0; w < workers; w++ {
		if bad := <-done; bad != 0 {
			t.Fatalf("%d mismatched predictions under concurrency", bad)
		}
	}
}

// TestWindowedFrameDecoderRejectsRoundless: a circuit without round
// structure (a hand-assembled literal that never went through the Builder,
// so NumRounds stays 0) cannot be windowed-decoded.
func TestWindowedFrameDecoderRejectsRoundless(t *testing.T) {
	c := &circuit.Circuit{
		Instructions: []circuit.Instruction{
			{Op: circuit.OpXError, Targets: []int{0}, Arg: 1e-3},
			{Op: circuit.OpM, Targets: []int{0}},
			{Op: circuit.OpDetector, Recs: []int{0}, Index: 0},
			{Op: circuit.OpObservable, Recs: []int{0}, Index: 0},
		},
		NumQubits: 1, NumMeas: 1, NumDetectors: 1, NumObs: 1,
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{}).WindowedFrameDecoder(c, 3); err == nil {
		t.Fatal("want error for roundless circuit")
	}
}
