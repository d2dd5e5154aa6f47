package mc

import (
	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/dem"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
	"fmt"
	"runtime"
	"sync"
)

// cacheEntry holds everything derivable from one prior circuit: its DEM,
// the decoding graph, a pool of reusable decoder instances per kind
// (decoders carry scratch state, so one instance serves one worker at a
// time; pooling avoids rebuilding their adjacency scans every chunk), and a
// free list of frame simulators (a simulator's compiled program and frame
// storage are reusable across chunks after a Reset).
type cacheEntry struct {
	model *dem.Model
	graph *decoder.Graph
	pools [2]sync.Pool // indexed by decoder.DecoderKind

	simMu sync.Mutex
	sims  []*sim.FrameSimulator
}

func newCacheEntry(prior *circuit.Circuit) (*cacheEntry, error) {
	model, err := dem.FromCircuit(prior)
	if err != nil {
		return nil, fmt.Errorf("mc: extracting DEM: %w", err)
	}
	g, err := decoder.BuildGraph(model)
	if err != nil {
		return nil, fmt.Errorf("mc: building graph: %w", err)
	}
	ent := &cacheEntry{model: model, graph: g}
	for kind := range ent.pools {
		k := decoder.DecoderKind(kind)
		ent.pools[kind].New = func() interface{} { return decoder.New(k, g) }
	}
	return ent, nil
}

// pool returns the entry's pool of decoder.Decoder instances of kind.
func (ent *cacheEntry) pool(kind decoder.DecoderKind) *sync.Pool {
	if kind == decoder.KindGreedy {
		return &ent.pools[1]
	}
	return &ent.pools[0]
}

// getSim returns a pooled frame simulator compiled for exactly c, rebound
// to r, or builds a fresh one. Matching is by circuit identity: stale-prior
// specs share a cache entry keyed by the prior but sample a *different*
// circuit, so a free simulator is only reused when it was compiled for the
// same circuit pointer.
func (ent *cacheEntry) getSim(c *circuit.Circuit, r *rng.RNG) *sim.FrameSimulator {
	ent.simMu.Lock()
	for i := len(ent.sims) - 1; i >= 0; i-- {
		if ent.sims[i].Circuit() == c {
			fs := ent.sims[i]
			last := len(ent.sims) - 1
			ent.sims[i] = ent.sims[last]
			ent.sims[last] = nil
			ent.sims = ent.sims[:last]
			ent.simMu.Unlock()
			fs.Reset(r)
			return fs
		}
	}
	ent.simMu.Unlock()
	return sim.NewFrameSimulator(c, r)
}

// putSim returns a simulator to the free list, bounded at twice GOMAXPROCS
// so an entry never hoards more simulators than a full worker pool can use.
func (ent *cacheEntry) putSim(fs *sim.FrameSimulator) {
	ent.simMu.Lock()
	if len(ent.sims) < 2*runtime.GOMAXPROCS(0) {
		ent.sims = append(ent.sims, fs)
	}
	ent.simMu.Unlock()
}

// entryFor returns the cached DEM+graph for prior, keyed by its
// fingerprint, building and inserting it on a miss (LRU eviction beyond the
// configured size).
func (e *Engine) entryFor(prior *circuit.Circuit) (*cacheEntry, error) {
	fp := prior.Fingerprint()
	e.mu.Lock()
	if ent, ok := e.cache[fp]; ok {
		e.hits++
		e.touch(fp)
		e.mu.Unlock()
		return ent, nil
	}
	e.misses++
	e.mu.Unlock()

	// Built outside the lock: concurrent misses on the same circuit may
	// build twice, but the last insert wins and both results are valid.
	ent, err := newCacheEntry(prior)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, ok := e.cache[fp]; !ok {
		e.cache[fp] = ent
		e.order = append(e.order, fp)
		for len(e.cache) > e.maxEntry {
			oldest := e.order[0]
			e.order = e.order[1:]
			delete(e.cache, oldest)
		}
	}
	ent = e.cache[fp]
	e.mu.Unlock()
	return ent, nil
}

// touch moves fp to the most-recently-used end. Called with e.mu held.
func (e *Engine) touch(fp [16]byte) {
	for i, f := range e.order {
		if f == fp {
			copy(e.order[i:], e.order[i+1:])
			e.order[len(e.order)-1] = fp
			return
		}
	}
}
