package mc

import (
	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/sim"
	"context"
	"fmt"
	"sync"
)

// FrameDecoder is the engine's per-frame decode hot path, exported for
// consumers that bring their own detector frames instead of sampling them
// in-process — internal/stream's replay/live-decode pipeline feeds recorded
// or network-delivered syndromes through it. It decodes over the same
// cached decoding graph Evaluate uses, through one pool of decoder.Decoder
// instances: for a whole-shot FrameDecoder that is the cache entry's own
// pool, so a frame decoded here follows bit-for-bit the path a simulated
// shot takes inside runChunk; for a windowed one it is a pool of
// decoder.Windowed decoders private to the FrameDecoder.
//
// A FrameDecoder is safe for concurrent use: every DecodeFrame call checks
// a decoder instance out of the pool and returns it before reporting.
type FrameDecoder struct {
	pool    *sync.Pool // decoder.Decoder instances over graph
	graph   *decoder.Graph
	window  int // sliding round window; 0 is whole-shot
	obsMask uint64
	numDet  int
	numObs  int
	fp      [16]byte
}

// FrameDecoder returns a whole-shot per-frame decoder over the (cached)
// decoding graph of prior. It shares the cache entry of an Evaluate that
// samples and decodes prior itself, so a live stream and an in-process
// evaluation of the same circuit share one graph and one decoder pool.
func (e *Engine) FrameDecoder(prior *circuit.Circuit, kind decoder.DecoderKind) (*FrameDecoder, error) {
	ent, err := e.frameEntry(prior)
	if err != nil {
		return nil, err
	}
	return newFrameDecoder(prior, ent.graph, ent.pool(kind), 0), nil
}

// WindowedFrameDecoder returns a per-frame decoder that decodes through a
// sliding round window (decoder.Windowed over the same cached graph an
// Evaluate would use), committing corrections as rounds slide out.
// Resident decode state is O(window), independent of how many rounds a
// stream carries. The prior must carry round structure (built by
// circuit.Builder with Ticks) and window must be >= 1; a window of at least
// NumRounds decodes bit-identically to whole-shot union-find.
func (e *Engine) WindowedFrameDecoder(prior *circuit.Circuit, window int) (*FrameDecoder, error) {
	ent, err := e.frameEntry(prior)
	if err != nil {
		return nil, err
	}
	// Build one eagerly so configuration errors (roundless graph, bad
	// window) surface here rather than inside a decode worker.
	first, err := decoder.NewWindowed(ent.graph, window)
	if err != nil {
		return nil, err
	}
	g := ent.graph
	pool := &sync.Pool{New: func() interface{} {
		w, nerr := decoder.NewWindowed(g, window)
		if nerr != nil {
			panic(nerr) //lint:allow panicpolicy same (graph, window) pair validated by the first NewWindowed above; failure here is an internal invariant break
		}
		return w
	}}
	pool.Put(first)
	return newFrameDecoder(prior, g, pool, window), nil
}

// frameEntry checks prior and resolves its cache entry.
func (e *Engine) frameEntry(prior *circuit.Circuit) (*cacheEntry, error) {
	if prior == nil {
		return nil, fmt.Errorf("mc: nil circuit")
	}
	if prior.NumObs > 64 {
		return nil, fmt.Errorf("mc: %d observables exceed the 64-bit mask limit", prior.NumObs)
	}
	ent, err := e.entryFor(prior, prior)
	if err != nil {
		return nil, err
	}
	e.publishCacheStats()
	return ent, nil
}

func newFrameDecoder(prior *circuit.Circuit, g *decoder.Graph, pool *sync.Pool, window int) *FrameDecoder {
	return &FrameDecoder{
		pool:    pool,
		graph:   g,
		window:  window,
		obsMask: observableMask(prior.NumObs),
		numDet:  prior.NumDetectors,
		numObs:  prior.NumObs,
		fp:      prior.Fingerprint(),
	}
}

// NumDetectors returns the detector count of the decoder's circuit.
func (fd *FrameDecoder) NumDetectors() int { return fd.numDet }

// NumObs returns the observable count of the decoder's circuit.
func (fd *FrameDecoder) NumObs() int { return fd.numObs }

// NumRounds returns the circuit's round count (0 when the circuit carries
// no round structure). Stream consumers match it against a trace header.
func (fd *FrameDecoder) NumRounds() int { return fd.graph.NumRounds }

// Window returns the sliding window in rounds, or 0 for whole-shot decoding.
func (fd *FrameDecoder) Window() int { return fd.window }

// CircuitFingerprint returns the content fingerprint of the prior circuit
// the decoding graph was built from. Stream consumers match it against a
// trace header before decoding.
func (fd *FrameDecoder) CircuitFingerprint() [16]byte { return fd.fp }

// DetectorQubits returns a copy of the graph's detector→qubit attribution
// (nil when the circuit carries none). Stream health monitoring uses it to
// map a drifting detector back to the hardware qubit behind it.
func (fd *FrameDecoder) DetectorQubits() []int {
	return append([]int(nil), fd.graph.NodeQubit...)
}

// DetectorRounds returns a copy of the graph's detector→round layering (nil
// when the circuit carries no round structure).
func (fd *FrameDecoder) DetectorRounds() []int {
	return append([]int(nil), fd.graph.NodeRound...)
}

// DecodeFrame decodes one frame: syndrome is the sorted list of fired
// detectors, and the return value is the predicted observable flip mask
// (masked to the circuit's observables), exactly as the evaluation loop
// computes it.
func (fd *FrameDecoder) DecodeFrame(syndrome []int) uint64 {
	dec := fd.pool.Get().(decoder.Decoder)
	pred := dec.Decode(syndrome) & fd.obsMask
	fd.pool.Put(dec)
	return pred
}

// ScoreFrame decodes one frame and reports whether it is a logical failure:
// the predicted observable mask differs from the sampled (actual) one in
// any bit. This is the exact failure criterion of Evaluate, so summing
// whole-shot ScoreFrame over a recorded shot stream reproduces the
// evaluation's failure count bit-identically.
func (fd *FrameDecoder) ScoreFrame(syndrome []int, actual uint64) bool {
	return fd.DecodeFrame(syndrome) != actual&fd.obsMask
}

// observableMask is the mask selecting numObs low observable bits (all 64
// at the limit). Shared by the chunk loop and FrameDecoder so both score
// against the identical mask.
func observableMask(numObs int) uint64 {
	if numObs >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(numObs) - 1
}

// SampleChunks samples spec's Monte-Carlo shot stream exactly as Evaluate
// would draw it — sharded into ChunkShots-sized chunks, each seeded by
// splitting the spec's generator in chunk order — but sequentially on the
// caller's goroutine, invoking visit once per sampler batch of detector and
// observable flip lanes. The randomness consumed is bit-identical to an
// Evaluate of the same spec regardless of that evaluation's worker count,
// which is what makes a trace recorded from these batches a correctness
// oracle: replaying it must reproduce Evaluate's failure count exactly.
//
// Early-stop criteria in spec are ignored (a recording captures the full
// budget). The BatchResult passed to visit aliases simulator scratch and is
// only valid during the call. A non-nil error from visit aborts sampling
// and is returned; cancellation is checked between batches.
func SampleChunks(ctx context.Context, spec Spec, visit func(sim.BatchResult) error) error {
	st, err := prepare(spec)
	if err != nil {
		return err
	}
	fs := sim.Compile(spec.Circuit).NewSimulator(nil)
	for i := 0; i < st.numChunks; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := ChunkShots
		if rem := spec.Shots - i*ChunkShots; rem < n {
			n = rem
		}
		fs.Reset(st.seeds[i])
		var verr error
		fs.SampleWhile(n, func(b sim.BatchResult) bool {
			if cerr := ctx.Err(); cerr != nil {
				verr = cerr
				return false
			}
			if berr := visit(b); berr != nil {
				verr = berr
				return false
			}
			return true
		})
		if verr != nil {
			return verr
		}
	}
	return nil
}
