package stream

import (
	"caliqec/internal/mc"
	"caliqec/internal/sim"
	"context"
	"fmt"
	"io"
	"math/bits"
)

// Record samples spec's Monte-Carlo shot stream exactly as mc.Evaluate
// would draw it (mc.SampleChunks: ChunkShots-sized shards, per-chunk split
// seeds) and persists it to w as a trace, one frame per shot. The header
// carries the sampled circuit's fingerprint, so replay can verify it is
// decoding against the right graph, and spec.Seed/spec.Shots as metadata.
//
// Because the sampled randomness is bit-identical to an in-process
// evaluation of the same spec, replaying the trace through a FrameDecoder
// built from the same prior reproduces that evaluation's logical failure
// count exactly — the round-trip determinism contract CI enforces.
//
// Returns the number of shots written. On error (including cancellation)
// the trace is left truncated mid-stream; Reader reports it as such.
func Record(ctx context.Context, spec mc.Spec, w io.Writer) (int, error) {
	if spec.Circuit == nil {
		return 0, fmt.Errorf("stream: nil circuit")
	}
	h := Header{
		Fingerprint:  spec.Circuit.Fingerprint(),
		NumDetectors: spec.Circuit.NumDetectors,
		NumObs:       spec.Circuit.NumObs,
		Seed:         spec.Seed,
		Shots:        uint64(spec.Shots),
		Rounds:       spec.Circuit.NumRounds,
		DetPerRound:  uniformDetPerRound(spec.Circuit.DetectorRounds(), spec.Circuit.NumRounds),
	}
	tw, err := NewWriter(w, h)
	if err != nil {
		return 0, err
	}
	fb := h.frameBytes()
	// One packed frame per shot of a sampler batch, backed by a single slab.
	slab := make([]byte, sim.LaneShots*fb)
	var packed [sim.LaneShots][]byte
	for s := range packed {
		packed[s] = slab[s*fb : (s+1)*fb]
	}
	var actual [sim.LaneShots]uint64
	written := 0
	err = mc.SampleChunks(ctx, spec, func(b sim.BatchResult) error {
		words := b.Words()
		for i := range slab {
			slab[i] = 0
		}
		for s := 0; s < b.Shots; s++ {
			actual[s] = 0
		}
		// Transpose detector lanes (shot s at bit s%64 of word s/64) into
		// per-shot packed frames, walking set bits only — cost scales with
		// fired detectors.
		for d := range b.Detectors {
			byteIdx, bit := d>>3, byte(1)<<uint(d&7)
			for w := 0; w < words; w++ {
				base := w * 64
				for word := b.Detectors[d][w]; word != 0; word &= word - 1 {
					packed[base+bits.TrailingZeros64(word)][byteIdx] |= bit
				}
			}
		}
		for o := range b.Observables {
			obit := uint64(1) << uint(o)
			for w := 0; w < words; w++ {
				base := w * 64
				for word := b.Observables[o][w]; word != 0; word &= word - 1 {
					actual[base+bits.TrailingZeros64(word)] |= obit
				}
			}
		}
		for s := 0; s < b.Shots; s++ {
			if werr := tw.WriteFrame(packed[s], actual[s]); werr != nil {
				return werr
			}
			written++
		}
		return nil
	})
	return written, err
}

// uniformDetPerRound returns the common detectors-per-round count when
// every round of [0, numRounds) owns the same number of detectors, else 0
// (the header's "non-uniform" marker). Memory circuits are non-uniform:
// their first and last detector rounds carry only memory-basis checks.
func uniformDetPerRound(detRounds []int, numRounds int) int {
	if numRounds <= 0 || len(detRounds) == 0 || len(detRounds)%numRounds != 0 {
		return 0
	}
	per := len(detRounds) / numRounds
	counts := make([]int, numRounds)
	for _, r := range detRounds {
		counts[r]++
	}
	for _, c := range counts {
		if c != per {
			return 0
		}
	}
	return per
}
