package mc

import (
	"caliqec/internal/decoder"
	"caliqec/internal/sim"
	"context"
	"fmt"
)

// WindowAblation is the result of AblateWindows: logical failure counts of
// whole-shot decoding and of each windowed decoder over one common sampled
// shot stream, so differences are attributable to the window alone.
type WindowAblation struct {
	Shots        int
	WholeFails   int   // whole-shot union-find failures
	Windows      []int // ablated window sizes
	WindowFails  []int // failures per window size, aligned with Windows
	NumRounds    int   // circuit rounds (window >= NumRounds is whole-shot)
	NumDetectors int
}

// LER returns the whole-shot logical error rate.
func (a *WindowAblation) LER() float64 { return float64(a.WholeFails) / float64(a.Shots) }

// WindowLER returns the logical error rate at Windows[i].
func (a *WindowAblation) WindowLER(i int) float64 {
	return float64(a.WindowFails[i]) / float64(a.Shots)
}

// AblateWindows samples spec's shot stream once (bit-identical to Evaluate's
// randomness, via SampleChunks) and scores every sampler batch with the
// whole-shot union-find decoder and with a windowed decoder per requested
// window size, each through the engine's own batch scorer. Early-stop
// criteria in spec are ignored; the full Shots budget is sampled.
func (e *Engine) AblateWindows(ctx context.Context, spec Spec, windows []int) (*WindowAblation, error) {
	prior := spec.Prior
	if prior == nil {
		prior = spec.Circuit
	}
	ent, err := e.frameEntry(prior)
	if err != nil {
		return nil, err
	}
	pool := ent.pool(decoder.KindUnionFind)
	whole := pool.Get().(decoder.Decoder)
	defer pool.Put(whole)
	decs := []decoder.Decoder{whole}
	for _, w := range windows {
		wd, err := decoder.NewWindowed(ent.graph, w)
		if err != nil {
			return nil, fmt.Errorf("mc: window %d: %w", w, err)
		}
		decs = append(decs, wd)
	}
	fails := make([]int, len(decs))
	shots := 0
	obsMask := observableMask(spec.Circuit.NumObs)
	sc := new(batchScratch)
	err = SampleChunks(ctx, spec, func(b sim.BatchResult) error {
		for i, dec := range decs {
			fails[i] += countBatchFailures(dec, b, obsMask, sc)
		}
		shots += b.Shots
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &WindowAblation{
		Shots:        shots,
		WholeFails:   fails[0],
		Windows:      append([]int(nil), windows...),
		WindowFails:  fails[1:],
		NumRounds:    ent.graph.NumRounds,
		NumDetectors: spec.Circuit.NumDetectors,
	}, nil
}
