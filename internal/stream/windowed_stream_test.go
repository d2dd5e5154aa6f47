package stream_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"caliqec/internal/decoder"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// TestReplayWindowedDecoder is the streaming half of the windowed
// equivalence contract: a recorded trace replayed through a windowed
// FrameDecoder with a full window reproduces the whole-shot
// evaluation bit-identically, and a genuinely sliding window (W=3) stays
// within the same statistical tolerance the mc-level ablation enforces.
func TestReplayWindowedDecoder(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 3000)
	eng := mc.New(mc.Options{})
	want, err := eng.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Failures == 0 {
		t.Fatal("test vacuous: no failures at this noise level")
	}
	raw := recordTrace(t, spec)

	r, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Rounds != spec.Circuit.NumRounds {
		t.Fatalf("trace header rounds %d, circuit has %d", h.Rounds, spec.Circuit.NumRounds)
	}

	// Full window: no mid-stream commits, so the failure count matches
	// Evaluate exactly for any worker fan-out.
	wd, err := eng.WindowedFrameDecoder(spec.Circuit, spec.Circuit.NumRounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		r, err := stream.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := stream.Replay(context.Background(), r, wd,
			stream.PipelineOptions{Workers: workers, Metrics: obs.Discard})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Frames != spec.Shots || stats.Failures != want.Failures {
			t.Fatalf("workers=%d: windowed replay %d failures over %d frames, Evaluate counted %d over %d",
				workers, stats.Failures, stats.Frames, want.Failures, spec.Shots)
		}
	}

	// Sliding window: commits happen mid-shot; the count may drift within
	// noise but a broken commit rule multiplies it.
	wd3, err := eng.WindowedFrameDecoder(spec.Circuit, 3)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := stream.Replay(context.Background(), r3, wd3,
		stream.PipelineOptions{Workers: 2, Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != spec.Shots {
		t.Fatalf("W=3 replay saw %d frames, want %d", stats.Frames, spec.Shots)
	}
	diff := stats.Failures - want.Failures
	if diff < 0 {
		diff = -diff
	}
	if tol := want.Failures/2 + 10; diff > tol {
		t.Fatalf("W=3 replay counted %d failures vs whole-shot %d (tolerance %d)",
			stats.Failures, want.Failures, tol)
	}
}

// TestCatalogResolveRoundMismatch: a trace whose header advertises a
// rounds-per-shot different from the registered decoder's circuit must be
// refused, whether the decoder is whole-shot or windowed, while the
// matching count and a v1 trace (no round metadata) are still served.
func TestCatalogResolveRoundMismatch(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 10)
	eng := mc.New(mc.Options{})
	whole, err := eng.FrameDecoder(spec.Circuit, decoder.KindUnionFind)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := eng.WindowedFrameDecoder(spec.Circuit, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range []*mc.FrameDecoder{whole, windowed} {
		cat := stream.NewCatalog()
		cat.Register(fd.CircuitFingerprint(), fd)

		h := stream.Header{
			Fingerprint:  fd.CircuitFingerprint(),
			NumDetectors: fd.NumDetectors(),
			NumObs:       fd.NumObs(),
			Rounds:       fd.NumRounds() + 1,
		}
		if _, err := cat.Resolve(h); err == nil {
			t.Fatalf("window=%d: round-count mismatch accepted", fd.Window())
		} else if !strings.Contains(err.Error(), "rounds") {
			t.Fatalf("window=%d: unexpected error: %v", fd.Window(), err)
		}

		h.Rounds = fd.NumRounds()
		if _, err := cat.Resolve(h); err != nil {
			t.Fatalf("window=%d: matching rounds rejected: %v", fd.Window(), err)
		}
		h.Rounds = 0 // v1 trace: no round metadata recorded
		if _, err := cat.Resolve(h); err != nil {
			t.Fatalf("window=%d: v1 trace rejected: %v", fd.Window(), err)
		}
	}
}

// TestReplayRejectsMismatchedGeometry: a trace that keeps the circuit's
// fingerprint but claims more detectors than the circuit has is refused by
// Replay before any frame is scored, with the error Catalog.Resolve gives
// the server, instead of indexing past the decoder's detectors.
func TestReplayRejectsMismatchedGeometry(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 10)
	eng := mc.New(mc.Options{})
	fd, err := eng.FrameDecoder(spec.Circuit, decoder.KindUnionFind)
	if err != nil {
		t.Fatal(err)
	}
	const wide = 32
	if fd.NumDetectors() >= wide {
		t.Fatalf("test vacuous: the circuit has %d detectors", fd.NumDetectors())
	}
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Header{
		Fingerprint:  fd.CircuitFingerprint(),
		NumDetectors: wide,
		NumObs:       fd.NumObs(),
		Shots:        100,
		Rounds:       fd.NumRounds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.WriteSyndrome([]int{wide - 5}, 0); err != nil {
			t.Fatal(err)
		}
	}
	r, err := stream.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := stream.Replay(context.Background(), r, fd, stream.PipelineOptions{Workers: 2, Metrics: obs.Discard})
	if err == nil || !strings.Contains(err.Error(), "trace geometry (32 detectors, 1 observables) does not match decoder (24, 1)") {
		t.Fatalf("Replay error = %v, want the geometry mismatch", err)
	}
	if stats != (stream.Stats{}) {
		t.Fatalf("Replay scored frames of a mismatched trace: %+v", stats)
	}
}
