package mc

import (
	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/dem"
	"caliqec/internal/sim"
	"fmt"
	"sync"
)

// cacheKey names a cache entry: the fingerprints of the sampled circuit and
// of the prior its decoders were built from. The two are equal when a spec
// decodes with its own circuit's rates.
type cacheKey struct{ circuit, prior [16]byte }

// cacheEntry holds everything derivable from one (sampled circuit, prior)
// pair: the decoding graph built from the prior's DEM, a pool of reusable
// decoder instances per kind (decoders carry scratch state, so one
// instance serves one worker at a time; pooling avoids rebuilding their
// adjacency scans every chunk), and, once the entry first samples, the
// sampled circuit's compiled sim.Program with a pool of frame simulators
// over it. An entry that only decodes frames (Engine.FrameDecoder) never
// compiles. The DEM is dropped once the graph is built and the program
// keeps no part of the circuit, so beyond its pools, which the garbage
// collector empties, an entry retains its graph and its program; bytes
// counts those two. Every worker shares the program, and a simulator
// carries only lanes, noise buffer and RNG.
type cacheEntry struct {
	key   cacheKey
	graph *decoder.Graph
	pools [2]sync.Pool // indexed by decoder.DecoderKind

	compile sync.Once
	sims    sync.Pool // *sim.FrameSimulator over the compiled program

	bytes int // retained by graph and program, from their capacities; guarded by Engine.mu
}

func newCacheEntry(key cacheKey, prior *circuit.Circuit) (*cacheEntry, error) {
	model, err := dem.FromCircuit(prior)
	if err != nil {
		return nil, fmt.Errorf("mc: extracting DEM: %w", err)
	}
	g, err := decoder.BuildGraph(model)
	if err != nil {
		return nil, fmt.Errorf("mc: building graph: %w", err)
	}
	ent := &cacheEntry{key: key, graph: g, bytes: g.Bytes()}
	for kind := range ent.pools {
		k := decoder.DecoderKind(kind)
		ent.pools[kind].New = func() interface{} { return decoder.New(k, g) }
	}
	return ent, nil
}

// simulators returns ent's pool of frame simulators. The first call
// compiles c, the circuit ent samples (its fingerprint is ent's key, so
// the entry never keeps the circuit), and adds the program's bytes to the
// entry and, while the entry is resident, to mc.cache.bytes.
func (e *Engine) simulators(ent *cacheEntry, c *circuit.Circuit) *sync.Pool {
	ent.compile.Do(func() {
		p := sim.Compile(c)
		ent.sims.New = func() interface{} { return p.NewSimulator(nil) }
		e.mu.Lock()
		ent.bytes += p.Bytes()
		if e.cache[ent.key] == ent {
			e.bytes += p.Bytes()
		}
		e.mu.Unlock()
		e.publishCacheStats()
	})
	return &ent.sims
}

// pool returns the entry's pool of decoder.Decoder instances of kind.
func (ent *cacheEntry) pool(kind decoder.DecoderKind) *sync.Pool {
	if kind == decoder.KindGreedy {
		return &ent.pools[1]
	}
	return &ent.pools[0]
}

// entryFor returns the cached entry for sampling c and decoding with prior,
// building and inserting it on a miss (LRU eviction beyond the configured
// size).
func (e *Engine) entryFor(c, prior *circuit.Circuit) (*cacheEntry, error) {
	key := cacheKey{c.Fingerprint(), prior.Fingerprint()}
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		e.hits++
		e.touch(key)
		e.mu.Unlock()
		return ent, nil
	}
	e.misses++
	e.mu.Unlock()

	// Built outside the lock: concurrent misses on the same pair may build
	// twice, but the first insert wins and both results are valid.
	ent, err := newCacheEntry(key, prior)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, ok := e.cache[key]; !ok {
		e.cache[key] = ent
		e.bytes += ent.bytes
		e.order = append(e.order, key)
		for len(e.cache) > e.maxEntry {
			oldest := e.order[0]
			e.order = e.order[1:]
			e.bytes -= e.cache[oldest].bytes
			delete(e.cache, oldest)
		}
	}
	ent = e.cache[key]
	e.mu.Unlock()
	return ent, nil
}

// touch moves key to the most-recently-used end. Called with e.mu held.
func (e *Engine) touch(key cacheKey) {
	for i, k := range e.order {
		if k == key {
			copy(e.order[i:], e.order[i+1:])
			e.order[len(e.order)-1] = key
			return
		}
	}
}
