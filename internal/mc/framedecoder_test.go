package mc

import (
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/lattice"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
	"context"
	"testing"
)

func frameTestCircuit(t testing.TB, d int, p float64) *code.Patch {
	t.Helper()
	return code.NewPatch(lattice.NewSquare(d))
}

// TestSampleChunksMatchesEvaluate is the in-package half of the stream
// round-trip oracle: scoring every batch SampleChunks produces through a
// FrameDecoder must reproduce Evaluate's failure count bit-identically,
// for both the worker-pool path and the sequential tap.
func TestSampleChunksMatchesEvaluate(t *testing.T) {
	patch := frameTestCircuit(t, 3, 3e-3)
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(3e-3)})
	if err != nil {
		t.Fatal(err)
	}
	const shots = 5000 // not a multiple of ChunkShots: exercises the short tail chunk
	spec := func() Spec {
		return Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 3, RNG: rng.New(42)}
	}
	eng := New(Options{})
	want, err := eng.Evaluate(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}

	fd, err := eng.FrameDecoder(c, decoder.KindUnionFind)
	if err != nil {
		t.Fatal(err)
	}
	if fd.NumDetectors() != c.NumDetectors || fd.NumObs() != c.NumObs {
		t.Fatalf("FrameDecoder dims (%d,%d), want (%d,%d)", fd.NumDetectors(), fd.NumObs(), c.NumDetectors, c.NumObs)
	}
	if fd.CircuitFingerprint() != c.Fingerprint() {
		t.Fatal("FrameDecoder fingerprint mismatch")
	}
	if fd.NumRounds() != c.NumRounds || fd.Window() != 0 {
		t.Fatalf("FrameDecoder rounds=%d window=%d, want %d whole-shot", fd.NumRounds(), fd.Window(), c.NumRounds)
	}

	got, total := 0, 0
	var syn []int
	err = SampleChunks(context.Background(), spec(), func(b sim.BatchResult) error {
		for s := 0; s < b.Shots; s++ {
			syn = syn[:0]
			var actual uint64
			w, bit := s/64, uint(s%64)
			for di := range b.Detectors {
				if b.Detectors[di][w]>>bit&1 == 1 {
					syn = append(syn, di)
				}
			}
			for o := range b.Observables {
				if b.Observables[o][w]>>bit&1 == 1 {
					actual |= 1 << uint(o)
				}
			}
			if fd.ScoreFrame(syn, actual) {
				got++
			}
			total++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != shots {
		t.Fatalf("SampleChunks delivered %d shots, want %d", total, shots)
	}
	if got != want.Failures {
		t.Fatalf("per-frame scoring counted %d failures, Evaluate counted %d", got, want.Failures)
	}
	if want.Failures == 0 {
		t.Fatal("test vacuous: no failures at this noise level; raise p")
	}
}

// TestSampleChunksCancellation: a canceled context aborts between batches
// with the context's error.
func TestSampleChunksCancellation(t *testing.T) {
	patch := frameTestCircuit(t, 3, 1e-3)
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	batches := 0
	err = SampleChunks(ctx, Spec{Circuit: c, Shots: 1 << 20, Seed: 1}, func(sim.BatchResult) error {
		batches++
		if batches == 3 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if batches > 4 {
		t.Fatalf("sampling ran %d batches after cancellation", batches)
	}
}

// TestDecodeFrameConcurrent exercises the pooled decoder checkout under
// parallel callers (run with -race in CI).
func TestDecodeFrameConcurrent(t *testing.T) {
	patch := frameTestCircuit(t, 3, 2e-3)
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(2e-3)})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := New(Options{}).FrameDecoder(c, decoder.KindUnionFind)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-draw syndromes, then decode them from many goroutines and check
	// every goroutine sees the same predictions as a serial pass.
	var syndromes [][]int
	fs := sim.NewFrameSimulator(c, rng.New(9))
	fs.Sample(256, func(b sim.BatchResult) {
		for s := 0; s < b.Shots; s++ {
			var syn []int
			for di := range b.Detectors {
				if b.Detectors[di][s/64]>>uint(s%64)&1 == 1 {
					syn = append(syn, di)
				}
			}
			syndromes = append(syndromes, syn)
		}
	})
	want := make([]uint64, len(syndromes))
	for i, syn := range syndromes {
		want[i] = fd.DecodeFrame(syn)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i, syn := range syndromes {
				if got := fd.DecodeFrame(syn); got != want[i] {
					errs <- nil
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		<-errs
	}
	// Re-verify serially after the concurrent churn: pooled scratch must not
	// have corrupted the graph.
	for i, syn := range syndromes {
		if got := fd.DecodeFrame(syn); got != want[i] {
			t.Fatalf("syndrome %d: prediction changed after concurrent use", i)
		}
	}
}
