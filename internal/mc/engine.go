// Package mc is the Monte-Carlo logical-error-rate engine: the single
// entry point through which every experiment, command, example and the
// public facade in this repository measures LERs.
//
// The engine owns the whole sample→decode pipeline — extract a detector
// error model from the decoder's prior circuit, build the decoding graph,
// fan Monte-Carlo shots over a worker pool, decode each shot, and count
// logical failures — and layers three capabilities on top of the raw loop
// that used to be copy-pasted across internal/decoder:
//
//   - Cancellation. Evaluate takes a context.Context and aborts an
//     in-flight evaluation between sampler batches, so long sweeps
//     (Table 2 fits, repro runs, benchmarks) stop promptly on Ctrl-C or
//     deadline.
//   - Caching. DEM extraction, decoding-graph construction and sampler
//     compilation are cached behind the content fingerprints of the
//     sampled circuit and the prior (instructions and noise parameters
//     included), so repeated evaluations of the same circuit — the
//     dominant pattern in internal/exp — pay them once. Each entry pools
//     decoder instances over its graph and frame simulators over its one
//     compiled sim.Program.
//   - Adaptive early stopping. Besides the fixed-shot mode, an evaluation
//     can stop as soon as a target failure count is reached or the 95%
//     Wilson interval is narrower than a target width, reporting the shots
//     actually spent.
//
// Determinism: shots are sharded into fixed-size chunks, each seeded by
// splitting the caller's RNG in chunk order, and early-stop decisions are
// taken over the in-order prefix of completed chunks. Results are therefore
// bit-identical for a fixed seed regardless of worker count — a stronger
// guarantee than the old per-worker sharding, which tied results to the
// (seed, workers) pair.
//
// Batched evaluation: EvaluateBatch runs many specs over one shared chunk
// scheduler — a single worker pool interleaves chunks from all specs, while
// seeding, committed-prefix accounting, early stopping and progress stay
// per-spec. Each spec's result is bit-identical to a standalone Evaluate
// with the same seed, regardless of worker count or which specs it shares
// the batch with.
package mc

import (
	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// ChunkShots is the shot-shard size: the unit of work a worker claims, the
// granularity of early-stop decisions and of progress reports. A multiple
// of sim.LaneShots so every chunk runs whole frame-simulator batches.
// Exported so
// internal/stream's record path shards its shot stream identically (see
// SampleChunks).
const ChunkShots = 1024

// Spec describes one Monte-Carlo LER evaluation.
type Spec struct {
	// Circuit is sampled; required.
	Circuit *circuit.Circuit
	// Prior, when non-nil, is a circuit with identical structure whose
	// noise rates reflect what the decoder *believes* (e.g. the last
	// calibration): the DEM and decoding graph are built from it. This
	// models decoding with stale priors after drift — the paper's drifted
	// scenarios run exactly this way. Nil means decode with Circuit's own
	// rates.
	Prior *circuit.Circuit
	// Decoder selects the decoder family (union-find by default).
	Decoder decoder.DecoderKind
	// Shots is the Monte-Carlo budget; required. With early stopping
	// enabled it is the maximum spent.
	Shots int
	// Rounds is the number of QEC rounds the circuit contains, used only
	// to derive the per-round rate; 0 if not applicable.
	Rounds int
	// RNG seeds the evaluation; if nil, rng.New(Seed) is used. The
	// generator is consumed (split once per chunk), so pass a dedicated
	// generator or a fresh split.
	//
	// In EvaluateBatch every spec's chunk seeds are drawn from that spec's
	// own RNG/Seed, in spec order, before any sampling starts — never from
	// a stream shared across specs. Adding, removing or reordering other
	// specs in a batch therefore cannot perturb this spec's result (though
	// reordering specs that share one RNG instance reorders which splits
	// each receives, exactly as reordering sequential Evaluate calls
	// would).
	RNG *rng.RNG
	// Seed is used only when RNG is nil.
	Seed uint64
	// Workers sets the pool size; ≤ 0 selects GOMAXPROCS. The result does
	// not depend on it. In EvaluateBatch the pool is shared: its size is
	// the maximum over the batch's specs.
	Workers int

	// TargetFailures, when > 0, stops the evaluation once at least this
	// many failures have been counted over the committed chunk prefix.
	TargetFailures int
	// TargetWilsonWidth, when > 0, stops once the 95% Wilson interval on
	// the LER is narrower than this.
	TargetWilsonWidth float64
	// MinShots, when > 0, is a floor below which early stopping does not
	// trigger.
	MinShots int

	// Progress, when non-nil, receives (shots committed, failures so far)
	// as the committed chunk prefix advances. Calls are serialized — never
	// concurrent — and the reported shot count is strictly increasing, but
	// calls may come from different worker goroutines, so the callback must
	// not assume a particular goroutine and must be fast (it runs on the
	// evaluation's critical path). When Evaluate returns without error, the
	// final call is guaranteed to have carried the returned totals. In
	// EvaluateBatch the calls of every spec share one lock, so callbacks of
	// different specs never overlap either and may share a writer.
	Progress func(shots, failures int)
}

// Result is the outcome of one evaluation.
type Result struct {
	decoder.Result
	// Requested is the shot budget asked for; Shots ≤ Requested when the
	// evaluation stopped early.
	Requested int
	// EarlyStopped reports whether a TargetFailures / TargetWilsonWidth
	// criterion ended the evaluation before the budget was spent.
	EarlyStopped bool
}

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the number of cached entries, one per (sampled
	// circuit, prior) pair (LRU); ≤ 0 selects the default (64).
	CacheSize int
	// Metrics selects the registry the engine records into; nil selects
	// obs.Default. Pass obs.Discard for an uninstrumented engine (the
	// baseline BenchmarkObsOverhead measures against).
	Metrics *obs.Registry
}

// Engine runs Monte-Carlo LER evaluations with a shared DEM/graph cache.
// The zero value is not usable; construct with New. An Engine is safe for
// concurrent use.
type Engine struct {
	metrics engineMetrics

	mu       sync.Mutex
	cache    map[cacheKey]*cacheEntry
	order    []cacheKey // LRU order, most recent last
	maxEntry int
	bytes    int // sum of the cached entries' bytes
	hits     uint64
	misses   uint64
}

// engineMetrics holds the engine's metric handles, resolved once at
// construction so the hot path pays atomic adds only. Every handle is nil
// (a no-op) when the engine records into obs.Discard.
type engineMetrics struct {
	registry     *obs.Registry
	shots        *obs.Counter   // mc.shots: Monte-Carlo shots committed
	failures     *obs.Counter   // mc.failures: logical failures counted
	evaluations  *obs.Counter   // mc.evaluations: Evaluate calls completed
	earlyStops   *obs.Counter   // mc.earlystop: evaluations ended by a criterion
	batches      *obs.Counter   // mc.batch.evaluations: EvaluateBatch calls completed
	occupancy    *obs.Gauge     // mc.sched.occupancy: busy fraction of the chunk scheduler's pool
	cacheHits    *obs.Gauge     // mc.cache.hits: cumulative DEM/graph cache hits
	cacheMisses  *obs.Gauge     // mc.cache.misses: cumulative cache misses
	cacheEntries *obs.Gauge     // mc.cache.entries: current cache population
	cacheBytes   *obs.Gauge     // mc.cache.bytes: bytes the cached graphs and programs retain
	latency      *obs.Histogram // mc.decode.latency: per-chunk wall ns
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	if r == nil {
		r = obs.Default
	}
	return engineMetrics{
		registry:     r,
		shots:        r.Counter("mc.shots"),
		failures:     r.Counter("mc.failures"),
		evaluations:  r.Counter("mc.evaluations"),
		earlyStops:   r.Counter("mc.earlystop"),
		batches:      r.Counter("mc.batch.evaluations"),
		occupancy:    r.Gauge("mc.sched.occupancy"),
		cacheHits:    r.Gauge("mc.cache.hits"),
		cacheMisses:  r.Gauge("mc.cache.misses"),
		cacheEntries: r.Gauge("mc.cache.entries"),
		cacheBytes:   r.Gauge("mc.cache.bytes"),
		latency:      r.Histogram("mc.decode.latency"),
	}
}

// New returns an Engine with the given options.
func New(opt Options) *Engine {
	if opt.CacheSize <= 0 {
		opt.CacheSize = 64
	}
	return &Engine{
		metrics:  newEngineMetrics(opt.Metrics),
		cache:    make(map[cacheKey]*cacheEntry),
		maxEntry: opt.CacheSize,
	}
}

// Default is the process-wide shared engine: package-level Evaluate uses
// it, so independent call sites (experiments, facade, CLI) share one
// DEM/graph cache.
var Default = New(Options{})

// Evaluate runs spec on the Default engine.
func Evaluate(ctx context.Context, spec Spec) (Result, error) {
	return Default.Evaluate(ctx, spec)
}

// EvaluateBatch runs specs on the Default engine.
func EvaluateBatch(ctx context.Context, specs []Spec) ([]Result, error) {
	return Default.EvaluateBatch(ctx, specs)
}

// CacheStats reports cache hits, misses and current entries.
func (e *Engine) CacheStats() (hits, misses uint64, entries int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses, len(e.cache)
}

// publishCacheStats mirrors the cache counters into the gauge metrics.
func (e *Engine) publishCacheStats() {
	e.mu.Lock()
	hits, misses, entries, bytes := e.hits, e.misses, len(e.cache), e.bytes
	e.mu.Unlock()
	e.metrics.cacheHits.Set(float64(hits))
	e.metrics.cacheMisses.Set(float64(misses))
	e.metrics.cacheEntries.Set(float64(entries))
	e.metrics.cacheBytes.Set(float64(bytes))
}

// evalState is one spec's complete scheduling state inside the shared chunk
// scheduler: its chunk seeds, completed-chunk records, committed-prefix
// accumulator, early-stop bound and progress guard. All fields except the
// progress guard are protected by the scheduler's mutex; the guard is
// protected by the batch's progress mutex.
type evalState struct {
	spec  Spec
	prior *circuit.Circuit // resolved prior (spec.Prior or spec.Circuit)
	ent   *cacheEntry

	seeds     []*rng.RNG // per-chunk generators, split in chunk order
	numChunks int

	chunks    []chunkState
	next      int // next chunk index to claim
	committed int // chunks [0, committed) are aggregated
	stopAt    int // chunks ≥ stopAt are not needed
	accShots  int
	accFails  int
	stopped   bool // an early-stop criterion fired

	// done is closed when the spec's committed prefix is final (all needed
	// chunks aggregated, or the batch aborted). Per-spec span goroutines
	// block on it.
	done     chan struct{}
	doneOnce sync.Once

	// Progress guard: workers snapshot committed totals under the
	// scheduler mutex and may race to deliver them; the monotonic guard
	// drops a snapshot that lost the race so the callback sees strictly
	// increasing shot counts.
	reportedShots int
}

type chunkState struct {
	failures int
	shots    int
	done     bool
}

func (st *evalState) closeDone() { st.doneOnce.Do(func() { close(st.done) }) }

// report delivers a progress snapshot under mu, the batch's progress
// mutex, deduplicating stale racers.
func (st *evalState) report(mu *sync.Mutex, shots, failures int) {
	if st.spec.Progress == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if shots <= st.reportedShots {
		return
	}
	st.reportedShots = shots
	st.spec.Progress(shots, failures)
}

// prepare validates spec and draws its chunk seeds. Seeds are drawn here, on
// the caller's goroutine and in chunk order, so the shot stream assigned to
// chunk i depends only on the spec's own generator — not on scheduling,
// worker count, or (for batches) which specs run alongside. SampleChunks
// shares this function, which is what pins the record path's shot stream to
// Evaluate's.
func prepare(spec Spec) (*evalState, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("mc: nil circuit")
	}
	if spec.Shots <= 0 {
		return nil, fmt.Errorf("mc: shots must be positive, got %d", spec.Shots)
	}
	if spec.Circuit.NumObs > 64 {
		return nil, fmt.Errorf("mc: %d observables exceed the 64-bit mask limit", spec.Circuit.NumObs)
	}
	prior := spec.Prior
	if prior == nil {
		prior = spec.Circuit
	}
	if spec.Circuit.NumDetectors != prior.NumDetectors || spec.Circuit.NumObs != prior.NumObs {
		return nil, fmt.Errorf("mc: prior circuit structure mismatch (%d/%d detectors, %d/%d observables)",
			prior.NumDetectors, spec.Circuit.NumDetectors, prior.NumObs, spec.Circuit.NumObs)
	}
	st := &evalState{
		spec:          spec,
		prior:         prior,
		numChunks:     (spec.Shots + ChunkShots - 1) / ChunkShots,
		done:          make(chan struct{}),
		reportedShots: -1,
	}
	base := spec.RNG
	if base == nil {
		base = rng.New(spec.Seed)
	}
	st.seeds = make([]*rng.RNG, st.numChunks)
	for i := range st.seeds {
		st.seeds[i] = base.Split()
	}
	st.chunks = make([]chunkState, st.numChunks)
	st.stopAt = st.numChunks
	return st, nil
}

// Evaluate samples spec.Shots Monte-Carlo trajectories of spec.Circuit,
// decodes each with a pooled decoder over the (cached) decoding graph of
// the prior circuit, and returns the logical error rate. All observables
// are compared: a shot fails when the predicted observable mask differs
// from the sampled one in any bit.
func (e *Engine) Evaluate(ctx context.Context, spec Spec) (Result, error) {
	st, err := prepare(spec)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ctx, span := obs.StartSpan(ctx, "mc.evaluate")
	defer span.End()
	span.SetAttr("shots", spec.Shots)
	span.SetAttr("detectors", spec.Circuit.NumDetectors)
	st.ent, err = e.entryFor(spec.Circuit, st.prior)
	if err != nil {
		return Result{}, err
	}
	e.publishCacheStats()
	if err := e.runStates(ctx, []*evalState{st}); err != nil {
		return Result{}, err
	}
	res := e.finish(st)
	if st.stopped {
		span.Event("early-stop")
		span.SetAttr("earlystop", true)
	}
	return res, nil
}

// EvaluateBatch evaluates every spec over one shared chunk scheduler: a
// single worker pool (sized at the maximum of the specs' Workers settings)
// claims chunk spans from all specs in rotation, so short specs do not
// serialize behind long ones and the pool never idles while any spec has
// work. Cache entries for distinct priors are built concurrently before
// sampling starts.
//
// Each spec keeps its own seeding, committed-prefix accounting, early
// stopping and progress callback; spec i's result is bit-identical to
// e.Evaluate(ctx, specs[i]) with the same seed. The first error (including
// context cancellation) aborts the whole batch. An empty batch returns
// (nil, nil).
func (e *Engine) EvaluateBatch(ctx context.Context, specs []Spec) ([]Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	states := make([]*evalState, len(specs))
	for i, spec := range specs {
		st, err := prepare(spec)
		if err != nil {
			return nil, fmt.Errorf("mc: batch spec %d: %w", i, err)
		}
		states[i] = st
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "mc.evaluate_batch")
	defer span.End()
	span.SetAttr("specs", len(specs))
	if err := e.buildEntries(states); err != nil {
		return nil, err
	}
	e.publishCacheStats()

	// Per-spec child spans: each lives in its own goroutine (started before
	// scheduling, ended when the spec's committed prefix is final) so the
	// trace shows one mc.evaluate span per spec under the batch parent.
	var spanWG sync.WaitGroup
	for _, st := range states {
		st := st
		spanWG.Add(1)
		go func() {
			defer spanWG.Done()
			_, sp := obs.StartSpan(ctx, "mc.evaluate")
			defer sp.End()
			sp.SetAttr("shots", st.spec.Shots)
			sp.SetAttr("detectors", st.spec.Circuit.NumDetectors)
			<-st.done
			if st.stopped {
				sp.Event("early-stop")
				sp.SetAttr("earlystop", true)
			}
		}()
	}

	err := e.runStates(ctx, states)
	for _, st := range states {
		st.closeDone() // release span goroutines of unfinished specs on error
	}
	spanWG.Wait()
	if err != nil {
		return nil, err
	}
	e.metrics.batches.Inc()
	results := make([]Result, len(states))
	for i, st := range states {
		results[i] = e.finish(st)
	}
	return results, nil
}

// buildEntries resolves the cache entry of every state, building distinct
// entries concurrently: on a cold sweep over D distinct circuits the DEM
// extractions and graph constructions — the dominant cold-start cost —
// overlap instead of serializing. States that share a (circuit, prior)
// pair share one build; the first failed build in state order is returned.
func (e *Engine) buildEntries(states []*evalState) error {
	type build struct {
		ent *cacheEntry
		err error
	}
	var wg sync.WaitGroup
	builds := make(map[cacheKey]*build)
	perState := make([]*build, len(states))
	for i, st := range states {
		key := cacheKey{st.spec.Circuit.Fingerprint(), st.prior.Fingerprint()}
		b, ok := builds[key]
		if !ok {
			b = new(build)
			builds[key] = b
			wg.Add(1)
			go func(c, prior *circuit.Circuit) {
				defer wg.Done()
				b.ent, b.err = e.entryFor(c, prior)
			}(st.spec.Circuit, st.prior)
		}
		perState[i] = b
	}
	wg.Wait()
	for i, st := range states {
		if perState[i].err != nil {
			return perState[i].err
		}
		st.ent = perState[i].ent
	}
	return nil
}

// runStates is the shared chunk scheduler. One worker pool claims spans of
// consecutive chunks, rotating across states; each completed chunk is
// committed into its state's in-order prefix, where early-stop criteria are
// applied exactly as in a standalone evaluation. A state's done channel
// closes the moment its prefix is final, under the same critical section
// that wrote its totals.
func (e *Engine) runStates(ctx context.Context, states []*evalState) error {
	totalChunks := 0
	workers := 0
	for _, st := range states {
		totalChunks += st.numChunks
		w := st.spec.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > workers {
			workers = w
		}
	}
	if workers > totalChunks {
		workers = totalChunks
	}

	var (
		mu      sync.Mutex
		cursor  int // round-robin position over states
		busy    int
		evalErr error
		// progressMu serializes the Progress calls of every state, so
		// specs of one batch never call back concurrently.
		progressMu sync.Mutex
	)
	// claimLocked picks the next needed span: a run of consecutive chunks
	// from one state, sized to divide that state's remaining chunks evenly
	// over the pool (ceil(remaining/workers), so all workers can still share
	// one large spec). Rotating across states keeps every spec progressing;
	// handing a worker a span rather than a single chunk keeps it on one
	// spec's circuit, graph and decoder long enough for its caches to stay
	// warm instead of interleaving structurally distinct specs every 1024
	// shots — the source of the old batch-warm > sequential-warm regression.
	// Chunks are still committed (and early-stop applied) one at a time, and
	// a worker abandons the rest of its span the moment stopAt drops below
	// it, so early-stopped results are unchanged. Called with mu held.
	claimLocked := func() (*evalState, int, int) {
		for k := 0; k < len(states); k++ {
			st := states[(cursor+k)%len(states)]
			if st.next < st.stopAt {
				lo := st.next
				hi := lo + (st.stopAt-lo+workers-1)/workers
				if hi > st.stopAt {
					hi = st.stopAt
				}
				st.next = hi
				cursor = (cursor + k + 1) % len(states)
				return st, lo, hi
			}
		}
		return nil, 0, 0
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if evalErr != nil {
					mu.Unlock()
					return
				}
				st, i, hi := claimLocked()
				if st == nil {
					mu.Unlock()
					return
				}
				// The occupancy gauge tracks span claims (not individual
				// chunks): one update pair per span keeps the gauge off the
				// per-chunk critical path.
				busy++
				e.metrics.occupancy.Set(float64(busy) / float64(workers))
				mu.Unlock()

				for more := true; more; {
					n := ChunkShots
					if rem := st.spec.Shots - i*ChunkShots; rem < n {
						n = rem
					}
					fails, cerr := e.runChunk(ctx, st.spec.Circuit, st.ent, st.spec.Decoder, n, st.seeds[i])

					mu.Lock()
					if cerr != nil {
						busy--
						e.metrics.occupancy.Set(float64(busy) / float64(workers))
						if evalErr == nil {
							evalErr = cerr
						}
						mu.Unlock()
						return
					}
					st.chunks[i] = chunkState{failures: fails, shots: n, done: true}
					// Advance the committed prefix in chunk order and apply the
					// early-stop criteria at each step: the first prefix that
					// satisfies them is the same no matter which worker finished
					// which chunk — or which other specs share the scheduler —
					// which keeps early-stopped results exactly reproducible for
					// a fixed seed.
					progressed := false
					for st.committed < st.stopAt && st.chunks[st.committed].done {
						st.accShots += st.chunks[st.committed].shots
						st.accFails += st.chunks[st.committed].failures
						st.committed++
						progressed = true
						if st.spec.stopSatisfied(st.accShots, st.accFails) {
							st.stopAt = st.committed
							st.stopped = true
							break
						}
					}
					snapShots, snapFails := st.accShots, st.accFails
					if st.committed >= st.stopAt {
						st.closeDone() // totals are final; written under mu just above
					}
					i++
					more = i < hi && i < st.stopAt && evalErr == nil
					if !more {
						busy--
						e.metrics.occupancy.Set(float64(busy) / float64(workers))
					}
					mu.Unlock()
					if progressed {
						st.report(&progressMu, snapShots, snapFails)
					}
				}
			}
		}()
	}
	wg.Wait()
	if evalErr != nil {
		return evalErr
	}
	// The last committing worker snapshots totals outside mu and can lose
	// the delivery race, so guarantee each callback's final call carries the
	// committed totals (the monotonic guard deduplicates if it already did).
	for _, st := range states {
		st.report(&progressMu, st.accShots, st.accFails)
	}
	return nil
}

// finish records a completed state's totals into the metrics and summarizes
// its result.
func (e *Engine) finish(st *evalState) Result {
	e.metrics.shots.Add(int64(st.accShots))
	e.metrics.failures.Add(int64(st.accFails))
	e.metrics.evaluations.Inc()
	if st.stopped {
		e.metrics.earlyStops.Inc()
	}
	return Result{
		Result:       decoder.Summarize(st.accShots, st.accFails, st.spec.Rounds),
		Requested:    st.spec.Shots,
		EarlyStopped: st.stopped,
	}
}

// stopSatisfied reports whether an adaptive criterion ends the evaluation
// after shots/failures have been committed.
func (s *Spec) stopSatisfied(shots, failures int) bool {
	if s.TargetFailures <= 0 && s.TargetWilsonWidth <= 0 {
		return false
	}
	if shots < s.MinShots {
		return false
	}
	if s.TargetFailures > 0 && failures >= s.TargetFailures {
		return true
	}
	if s.TargetWilsonWidth > 0 {
		lo, hi := rng.WilsonInterval(failures, shots)
		if hi-lo <= s.TargetWilsonWidth {
			return true
		}
	}
	return false
}

// batchScratch is the per-chunk decode scratch: one syndrome list per shot
// of a sampler batch plus the sampled observable masks. Pooled so the
// steady-state chunk loop performs no per-batch allocation.
type batchScratch struct {
	syn    [sim.LaneShots][]int
	actual [sim.LaneShots]uint64
}

var scratchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

// runChunk samples and decodes one shot chunk with a pooled frame simulator
// and a pooled decoder, checking ctx between sampler batches. Each chunk's
// wall time lands in the mc.decode.latency histogram (skipped entirely on a
// discarding registry, so the uninstrumented path pays no clock reads).
func (e *Engine) runChunk(ctx context.Context, c *circuit.Circuit, ent *cacheEntry, kind decoder.DecoderKind, shots int, seed *rng.RNG) (int, error) {
	if e.metrics.latency != nil {
		start := e.metrics.registry.Now()
		defer func() {
			e.metrics.latency.Observe(e.metrics.registry.Now().Sub(start).Nanoseconds())
		}()
	}
	pool := ent.pool(kind)
	dec := pool.Get().(decoder.Decoder)
	defer pool.Put(dec)
	sims := e.simulators(ent, c)
	fs := sims.Get().(*sim.FrameSimulator)
	defer sims.Put(fs)
	fs.Reset(seed)
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	obsMask := observableMask(c.NumObs)
	failures := 0
	canceled := false
	fs.SampleWhile(shots, func(b sim.BatchResult) bool {
		if ctx.Err() != nil {
			canceled = true
			return false
		}
		failures += countBatchFailures(dec, b, obsMask, sc)
		return true
	})
	if canceled {
		return 0, ctx.Err()
	}
	return failures, nil
}

// countBatchFailures decodes the shots of one sampler batch and counts
// those whose predicted observable mask misses the sampled one. All
// observables participate — not just observable 0.
//
// The batch is processed one 64-shot lane word at a time. The detector
// lanes of each word are OR-reduced into a fired mask: shots with an empty
// syndrome decode to the decoder's empty-syndrome prediction (0 for every
// decoder in this repository — probed once per batch so stub decoders that
// predict otherwise still score correctly), so their failures are a single
// bits.OnesCount64 popcount of flipped-but-silent shots instead of a
// per-shot decode. Only fired shots get syndromes gathered — set bits
// walked with bits.TrailingZeros64, detector words in ascending index order
// so each shot's syndrome list stays sorted — and decoded, in ascending
// shot order: the same inputs in the same order as decoding every shot
// densely, so results are bit-identical.
func countBatchFailures(dec decoder.Decoder, b sim.BatchResult, obsMask uint64, sc *batchScratch) int {
	// Every real decoder predicts 0 for an empty syndrome without touching
	// its scratch state, making the probe free and the skipped decodes
	// unobservable.
	emptyPred := dec.Decode(nil) & obsMask
	words := b.Words()
	failures := 0
	for w := 0; w < words; w++ {
		base := w * 64
		var fired uint64
		for d := range b.Detectors {
			fired |= b.Detectors[d][w]
		}
		if emptyPred == 0 {
			var flipped uint64
			for o := range b.Observables {
				flipped |= b.Observables[o][w]
			}
			// Empty-syndrome shots fail exactly when any observable flipped.
			// Bits past b.Shots are zero in every lane, so they cannot count.
			failures += bits.OnesCount64(flipped &^ fired)
		} else {
			// Nonzero empty-syndrome prediction: every valid shot must be
			// decoded and compared individually.
			fired = ^uint64(0)
			if rem := b.Shots - base; rem < 64 {
				fired = uint64(1)<<uint(rem) - 1
			}
		}
		if fired == 0 {
			continue
		}
		for m := fired; m != 0; m &= m - 1 {
			s := base + bits.TrailingZeros64(m)
			sc.syn[s] = sc.syn[s][:0]
			sc.actual[s] = 0
		}
		for d := range b.Detectors {
			for word := b.Detectors[d][w]; word != 0; word &= word - 1 {
				s := base + bits.TrailingZeros64(word)
				sc.syn[s] = append(sc.syn[s], d)
			}
		}
		for o := range b.Observables {
			obit := uint64(1) << uint(o)
			for word := b.Observables[o][w] & fired; word != 0; word &= word - 1 {
				sc.actual[base+bits.TrailingZeros64(word)] |= obit
			}
		}
		for m := fired; m != 0; m &= m - 1 {
			s := base + bits.TrailingZeros64(m)
			if dec.Decode(sc.syn[s])&obsMask != sc.actual[s] {
				failures++
			}
		}
	}
	return failures
}
