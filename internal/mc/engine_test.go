package mc

import (
	"bytes"
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/dem"
	"caliqec/internal/lattice"
	"caliqec/internal/obs"
	"caliqec/internal/sim"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func memCircuit(t testing.TB, d, rounds int, p float64) *circuit.Circuit {
	t.Helper()
	patch := code.NewPatch(lattice.NewSquare(d))
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustEval(t *testing.T, e *Engine, spec Spec) Result {
	t.Helper()
	res, err := e.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSerialParallelConsistency: the Result must be bit-identical across
// worker counts for a fixed seed — the chunk-sharded determinism guarantee —
// and repeated runs with the same (seed, workers) must agree exactly.
func TestSerialParallelConsistency(t *testing.T) {
	c := memCircuit(t, 3, 3, 3e-3)
	e := New(Options{})
	spec := func(workers int) Spec {
		return Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 5000, Rounds: 3, Seed: 42, Workers: workers}
	}
	serial := mustEval(t, e, spec(1))
	if serial.Shots != 5000 {
		t.Fatalf("serial run spent %d shots, want 5000", serial.Shots)
	}
	for _, w := range []int{2, 4, 8, 0} {
		par := mustEval(t, e, spec(w))
		if par != serial {
			t.Errorf("workers=%d result %+v differs from serial %+v", w, par, serial)
		}
	}
	again := mustEval(t, e, spec(4))
	if again != serial {
		t.Errorf("repeated run not reproducible: %+v vs %+v", again, serial)
	}
}

// TestCacheCorrectness: identical circuit structure with different noise
// rates must NOT share a cache entry (the fingerprint covers channel
// probabilities), and a cache hit must return the same Result as the cold
// build did.
func TestCacheCorrectness(t *testing.T) {
	cLow := memCircuit(t, 3, 3, 1e-3)
	cHigh := memCircuit(t, 3, 3, 8e-3)
	if cLow.Fingerprint() == cHigh.Fingerprint() {
		t.Fatal("circuits with different noise rates share a fingerprint")
	}

	e := New(Options{})
	spec := Spec{Circuit: cHigh, Decoder: decoder.KindUnionFind, Shots: 3000, Rounds: 3, Seed: 7}
	cold := mustEval(t, e, spec)
	if _, misses, entries := e.CacheStats(); misses != 1 || entries != 1 {
		t.Fatalf("after cold run: misses=%d entries=%d, want 1/1", misses, entries)
	}
	// Different rates, same structure: must be a second miss, not a hit.
	mustEval(t, e, Spec{Circuit: cLow, Decoder: decoder.KindUnionFind, Shots: 3000, Rounds: 3, Seed: 7})
	if hits, misses, entries := e.CacheStats(); hits != 0 || misses != 2 || entries != 2 {
		t.Fatalf("after second rate: hits=%d misses=%d entries=%d, want 0/2/2", hits, misses, entries)
	}
	// Re-evaluating the first circuit is a hit and reproduces the cold Result.
	warm := mustEval(t, e, spec)
	if hits, _, _ := e.CacheStats(); hits != 1 {
		t.Fatalf("re-evaluation did not hit the cache")
	}
	if warm != cold {
		t.Errorf("cache hit result %+v differs from cold result %+v", warm, cold)
	}
}

// TestCacheEviction: the LRU bound holds.
func TestCacheEviction(t *testing.T) {
	e := New(Options{CacheSize: 2})
	for _, p := range []float64{1e-3, 2e-3, 3e-3} {
		mustEval(t, e, Spec{Circuit: memCircuit(t, 3, 2, p), Decoder: decoder.KindUnionFind, Shots: 100, Seed: 1})
	}
	if _, _, entries := e.CacheStats(); entries != 2 {
		t.Fatalf("cache holds %d entries, want LRU bound 2", entries)
	}
}

// TestCacheBytesGauge: mc.cache.bytes is the sum of what the resident
// entries' graphs and programs retain. It grows on every insert and falls
// when the LRU bound evicts the larger d=5 entry for a d=3 one.
func TestCacheBytesGauge(t *testing.T) {
	entryBytes := func(c *circuit.Circuit) int {
		m, err := dem.FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		g, err := decoder.BuildGraph(m)
		if err != nil {
			t.Fatal(err)
		}
		return g.Bytes() + sim.Compile(c).Bytes()
	}
	reg := obs.NewRegistry(nil)
	e := New(Options{CacheSize: 2, Metrics: reg})
	gauge := func() int { return int(reg.Snapshot()["mc.cache.bytes"].(float64)) }
	big, a, b := memCircuit(t, 5, 5, 1e-3), memCircuit(t, 3, 3, 1e-3), memCircuit(t, 3, 3, 2e-3)
	resident := 0
	for i, c := range []*circuit.Circuit{big, a} {
		mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 100, Seed: 1})
		resident += entryBytes(c)
		if got := gauge(); got != resident {
			t.Fatalf("after %d entries mc.cache.bytes = %d, want %d", i+1, got, resident)
		}
	}
	mustEval(t, e, Spec{Circuit: b, Decoder: decoder.KindUnionFind, Shots: 100, Seed: 1})
	want := entryBytes(a) + entryBytes(b)
	if got := gauge(); got != want || got >= resident {
		t.Errorf("after evicting the d=5 entry mc.cache.bytes = %d, want %d, below %d", got, want, resident)
	}
}

// TestFrameDecoderEntryCompilesOnFirstSample: an entry that only decodes
// frames holds no sampler program, so mc.cache.bytes counts its graph
// alone; the first Evaluate of the same circuit hits that entry, compiles
// the program and adds its bytes.
func TestFrameDecoderEntryCompilesOnFirstSample(t *testing.T) {
	c := memCircuit(t, 5, 5, 1e-3)
	m, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := decoder.BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(nil)
	e := New(Options{Metrics: reg})
	gauge := func() int { return int(reg.Snapshot()["mc.cache.bytes"].(float64)) }
	if _, err := e.FrameDecoder(c, decoder.KindUnionFind); err != nil {
		t.Fatal(err)
	}
	if got := gauge(); got != g.Bytes() {
		t.Fatalf("FrameDecoder-only entry: mc.cache.bytes = %d, want its graph's %d", got, g.Bytes())
	}
	mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 100, Seed: 1})
	if hits, misses, _ := e.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("Evaluate after FrameDecoder: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if got, want := gauge(), g.Bytes()+sim.Compile(c).Bytes(); got != want {
		t.Errorf("after one Evaluate: mc.cache.bytes = %d, want graph plus program %d", got, want)
	}
}

// TestStalePriorDecoding: a Prior circuit with the same structure but
// different rates is accepted (and is the stale-priors path Fig. 13 uses);
// a structurally different prior is rejected. The cache keys an entry by
// the (sampled circuit, prior) pair: decoding c with its own rates is a
// second entry, sampling the prior itself a third, and re-evaluating
// (c, prior) hits the first and reproduces its Result.
func TestStalePriorDecoding(t *testing.T) {
	c := memCircuit(t, 3, 3, 8e-3)
	prior := memCircuit(t, 3, 3, 1e-3)
	e := New(Options{})
	stale := Spec{Circuit: c, Prior: prior, Decoder: decoder.KindUnionFind, Shots: 2000, Rounds: 3, Seed: 5}
	res := mustEval(t, e, stale)
	if res.Shots != 2000 {
		t.Fatalf("spent %d shots, want 2000", res.Shots)
	}
	mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 2000, Rounds: 3, Seed: 5})
	if hits, misses, entries := e.CacheStats(); hits != 0 || misses != 2 || entries != 2 {
		t.Fatalf("after (c, prior) and (c, c): hits=%d misses=%d entries=%d, want 0/2/2", hits, misses, entries)
	}
	if again := mustEval(t, e, stale); again != res {
		t.Errorf("re-evaluating (c, prior) gave %+v, want %+v", again, res)
	}
	if hits, _, entries := e.CacheStats(); hits != 1 || entries != 2 {
		t.Fatalf("re-evaluating (c, prior): hits=%d entries=%d, want 1/2", hits, entries)
	}
	mustEval(t, e, Spec{Circuit: prior, Decoder: decoder.KindUnionFind, Shots: 2000, Rounds: 3, Seed: 5})
	if _, misses, entries := e.CacheStats(); misses != 3 || entries != 3 {
		t.Fatalf("after (prior, prior): misses=%d entries=%d, want 3/3", misses, entries)
	}
	bad := memCircuit(t, 3, 2, 1e-3) // fewer rounds → fewer detectors
	if _, err := e.Evaluate(context.Background(), Spec{Circuit: c, Prior: bad, Decoder: decoder.KindUnionFind, Shots: 100}); err == nil {
		t.Fatal("structurally mismatched prior not rejected")
	}
}

// TestColdEvaluateAllocs: a cache miss compiles the sampled circuit once
// for its entry, into a program whose tables and slab are sized up front,
// and builds a graph whose arrays are sized likewise, so a cold evaluation
// allocates mostly for DEM extraction (about 930 objects here). The bound
// leaves about 29% headroom; it fails if compiling goes back to allocating
// per instruction or per worker, or the graph build per node.
func TestColdEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	spec := Spec{Circuit: memCircuit(t, 5, 5, 2e-3), Decoder: decoder.KindUnionFind, Shots: 4096, Rounds: 5, Seed: 1, Workers: 1}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(Options{}).Evaluate(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1200 {
		t.Errorf("a fresh-engine Evaluate allocated %v times, want at most 1200", allocs)
	}
}

// TestCancellation: a pre-cancelled context returns immediately; cancelling
// mid-evaluation aborts promptly with context.Canceled instead of draining
// the shot budget.
func TestCancellation(t *testing.T) {
	c := memCircuit(t, 5, 5, 2e-3)
	e := New(Options{})

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Evaluate(pre, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 1000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// A budget far beyond what 10ms covers: only cancellation ends this run
	// quickly.
	_, err := e.Evaluate(ctx, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 50_000_000})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt abort", elapsed)
	}
}

// TestEarlyStopTargetFailures: the evaluation stops once the target failure
// count is reached over the committed prefix, reports the shots actually
// spent, and remains deterministic across worker counts.
func TestEarlyStopTargetFailures(t *testing.T) {
	c := memCircuit(t, 3, 3, 1.5e-2) // high rate so failures come fast
	e := New(Options{})
	spec := func(workers int) Spec {
		return Spec{
			Circuit: c, Decoder: decoder.KindUnionFind, Shots: 400000, Rounds: 3,
			Seed: 11, Workers: workers, TargetFailures: 50,
		}
	}
	res := mustEval(t, e, spec(4))
	if !res.EarlyStopped {
		t.Fatal("evaluation did not stop early")
	}
	if res.Shots >= res.Requested {
		t.Fatalf("early stop spent the whole budget: %d/%d", res.Shots, res.Requested)
	}
	if res.Failures < 50 {
		t.Fatalf("stopped with %d failures, target 50", res.Failures)
	}
	if serial := mustEval(t, e, spec(1)); serial != res {
		t.Errorf("early-stopped result depends on workers: %+v vs %+v", serial, res)
	}
}

// TestEarlyStopWilsonWidth: the interval-width criterion also stops early
// and the reported interval satisfies the target.
func TestEarlyStopWilsonWidth(t *testing.T) {
	c := memCircuit(t, 3, 3, 1.5e-2)
	e := New(Options{})
	res := mustEval(t, e, Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: 400000, Rounds: 3,
		Seed: 3, TargetWilsonWidth: 0.05, MinShots: 1024,
	})
	if !res.EarlyStopped {
		t.Fatal("evaluation did not stop early")
	}
	if w := res.WilsonHi - res.WilsonLo; w > 0.05 {
		t.Fatalf("stopped with interval width %.4g > target 0.05", w)
	}
	if res.Shots < 1024 {
		t.Fatalf("stopped below MinShots: %d", res.Shots)
	}
}

// TestProgressReporting: the callback sees monotonically non-decreasing
// committed totals ending at the final result.
func TestProgressReporting(t *testing.T) {
	c := memCircuit(t, 3, 3, 3e-3)
	e := New(Options{})
	var lastShots, lastFails, calls int
	res := mustEval(t, e, Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: 5000, Rounds: 3, Seed: 9, Workers: 1,
		Progress: func(shots, failures int) {
			if shots < lastShots || failures < lastFails {
				t.Errorf("progress went backwards: (%d,%d) after (%d,%d)", shots, failures, lastShots, lastFails)
			}
			lastShots, lastFails = shots, failures
			calls++
		},
	})
	if calls == 0 {
		t.Fatal("progress callback never called")
	}
	if lastShots != res.Shots || lastFails != res.Failures {
		t.Errorf("final progress (%d,%d) != result (%d,%d)", lastShots, lastFails, res.Shots, res.Failures)
	}
}

// TestSpecValidation covers the error paths: nil circuit, non-positive
// shots, too many observables.
func TestSpecValidation(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	if _, err := e.Evaluate(ctx, Spec{Shots: 10}); err == nil {
		t.Error("nil circuit accepted")
	}
	c := memCircuit(t, 3, 2, 1e-3)
	if _, err := e.Evaluate(ctx, Spec{Circuit: c}); err == nil {
		t.Error("zero shots accepted")
	}
	wide := *c
	wide.NumObs = 65
	if _, err := e.Evaluate(ctx, Spec{Circuit: &wide, Shots: 10}); err == nil {
		t.Error("NumObs=65 accepted; observable masks beyond 64 bits must be an explicit error")
	}
}

// maskDecoder is a stub whose prediction is fixed, for exercising the
// observable-mask comparison without a full decoding stack.
type maskDecoder uint64

func (m maskDecoder) Decode([]int) uint64 { return uint64(m) }

// TestMultiObservableScoring: a shot fails when ANY observable bit differs
// — not just observable 0. The old harness compared Observables[0] against
// pred&1 and was blind to failures on higher observables.
func TestMultiObservableScoring(t *testing.T) {
	// Batch of 2 shots, 3 observables. Sampled masks: shot0 = 0b010,
	// shot1 = 0b011.
	b := sim.BatchResult{
		Detectors:   nil,
		Observables: []sim.Lane{{0b10}, {0b11}, {0b00}}, // per-observable shot lanes
		Shots:       2,
	}
	scratch := new(batchScratch)
	cases := []struct {
		pred  uint64
		wantF int
	}{
		{0b010, 1}, // matches shot0 exactly; shot1 differs in bit 0
		{0b011, 1}, // matches shot1; shot0 differs in bit 0
		{0b000, 2}, // misses both — invisible to an Observables[0]-only check for shot0? no: bit0 of shot0 is 0, so a low-bit-only check would PASS shot0 despite bit1 differing
		{0b110, 2}, // bit1 matches shot0 but bit2 flipped: both fail
	}
	for _, tc := range cases {
		if got := countBatchFailures(maskDecoder(tc.pred), b, 0b111, scratch); got != tc.wantF {
			t.Errorf("pred=%03b: %d failures, want %d", tc.pred, got, tc.wantF)
		}
	}
	// The documented blind spot, explicitly: prediction 0b000 vs sampled
	// 0b010 agrees on observable 0 yet is a logical failure.
	if got := countBatchFailures(maskDecoder(0), sim.BatchResult{Observables: []sim.Lane{{0b0}, {0b1}, {0b0}}, Shots: 1}, 0b111, scratch); got != 1 {
		t.Errorf("higher-observable mismatch not counted: got %d failures, want 1", got)
	}
}

// TestLogicalErrorSuppression (migrated from internal/decoder): LER must
// drop with distance below threshold — the end-to-end sanity check of the
// sample→decode pipeline.
func TestLogicalErrorSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	const p = 2e-3
	e := New(Options{})
	var lers []float64
	for _, d := range []int{3, 5} {
		c := memCircuit(t, d, d, p)
		res := mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 20000, Rounds: d, Seed: 17})
		lers = append(lers, res.LER)
	}
	if lers[1] >= lers[0] {
		t.Errorf("LER not suppressed with distance: d=3 %.4g, d=5 %.4g", lers[0], lers[1])
	}
}

// TestGreedyAgreesRoughly (migrated from internal/decoder): the greedy
// baseline should land within a modest factor of union-find on the same
// shots.
func TestGreedyAgreesRoughly(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	c := memCircuit(t, 3, 3, 4e-3)
	e := New(Options{})
	uf := mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 20000, Rounds: 3, Seed: 21})
	gr := mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindGreedy, Shots: 20000, Rounds: 3, Seed: 21})
	if uf.Failures == 0 || gr.Failures == 0 {
		t.Fatal("underpowered: no failures observed")
	}
	ratio := gr.LER / uf.LER
	if ratio < 0.3 || ratio > 3.5 {
		t.Errorf("decoders disagree wildly: greedy %.4g vs union-find %.4g (%.2fx)", gr.LER, uf.LER, ratio)
	}
}

// TestProgressMultiWorker: with many workers racing to commit chunks, the
// callback must still see serialized, strictly increasing shot counts and a
// guaranteed final call carrying the returned totals.
func TestProgressMultiWorker(t *testing.T) {
	c := memCircuit(t, 3, 3, 3e-3)
	e := New(Options{})
	var (
		inCallback atomic.Bool
		lastShots  = -1
		lastFails  int
		calls      int
	)
	res := mustEval(t, e, Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: 20000, Rounds: 3, Seed: 11, Workers: 8,
		Progress: func(shots, failures int) {
			if !inCallback.CompareAndSwap(false, true) {
				t.Error("Progress called concurrently")
			}
			defer inCallback.Store(false)
			if shots <= lastShots {
				t.Errorf("progress shots not strictly increasing: %d after %d", shots, lastShots)
			}
			if failures < lastFails {
				t.Errorf("progress failures went backwards: %d after %d", failures, lastFails)
			}
			lastShots, lastFails = shots, failures
			calls++
		},
	})
	if calls == 0 {
		t.Fatal("progress callback never called")
	}
	if lastShots != res.Shots || lastFails != res.Failures {
		t.Errorf("final progress (%d,%d) != result (%d,%d)", lastShots, lastFails, res.Shots, res.Failures)
	}
}

// TestProgressFinalCallEarlyStop: the guaranteed final call also holds when
// an early-stop criterion truncates the evaluation.
func TestProgressFinalCallEarlyStop(t *testing.T) {
	c := memCircuit(t, 3, 3, 2e-2)
	e := New(Options{})
	lastShots, lastFails := -1, 0
	res := mustEval(t, e, Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: 200000, Rounds: 3, Seed: 5, Workers: 4,
		TargetFailures: 20,
		Progress: func(shots, failures int) {
			lastShots, lastFails = shots, failures
		},
	})
	if !res.EarlyStopped {
		t.Fatal("expected an early stop at p=2e-2 with TargetFailures=20")
	}
	if lastShots != res.Shots || lastFails != res.Failures {
		t.Errorf("final progress (%d,%d) != result (%d,%d)", lastShots, lastFails, res.Shots, res.Failures)
	}
}

// TestEngineMetrics: an engine wired to a fresh registry records shot,
// failure, evaluation and cache metrics plus a per-chunk latency histogram.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry(nil)
	e := New(Options{Metrics: reg})
	c := memCircuit(t, 3, 3, 3e-3)
	spec := Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 4096, Rounds: 3, Seed: 3}
	res := mustEval(t, e, spec)
	mustEval(t, e, spec) // second run hits the DEM/graph cache

	snap := reg.Snapshot()
	if got := snap["mc.shots"].(int64); got != int64(2*res.Shots) {
		t.Errorf("mc.shots = %d, want %d", got, 2*res.Shots)
	}
	if got := snap["mc.evaluations"].(int64); got != 2 {
		t.Errorf("mc.evaluations = %d, want 2", got)
	}
	if got := snap["mc.failures"].(int64); got != int64(2*res.Failures) {
		t.Errorf("mc.failures = %d, want %d", got, 2*res.Failures)
	}
	hs := snap["mc.decode.latency"].(obs.HistogramSnapshot)
	wantChunks := int64(2 * ((spec.Shots + ChunkShots - 1) / ChunkShots))
	if hs.Count != wantChunks {
		t.Errorf("mc.decode.latency count = %d, want %d chunks", hs.Count, wantChunks)
	}
	if got := snap["mc.cache.hits"].(float64); got < 1 {
		t.Errorf("mc.cache.hits = %v, want >= 1 after a repeated evaluation", got)
	}
	if got := snap["mc.cache.misses"].(float64); got < 1 {
		t.Errorf("mc.cache.misses = %v, want >= 1 after a cold evaluation", got)
	}
}

// TestEngineDiscardMetrics: an engine on obs.Discard records nothing and
// still evaluates correctly.
func TestEngineDiscardMetrics(t *testing.T) {
	e := New(Options{Metrics: obs.Discard})
	c := memCircuit(t, 3, 3, 3e-3)
	res := mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 2048, Rounds: 3, Seed: 3})
	if res.Shots != 2048 {
		t.Errorf("Shots = %d, want 2048", res.Shots)
	}
	if len(obs.Discard.Snapshot()) != 0 {
		t.Error("Discard registry must stay empty")
	}
}

// TestEvaluateSpan: Evaluate records an mc.evaluate span when the context
// carries a tracer, with an early-stop instant event when a criterion fires.
func TestEvaluateSpan(t *testing.T) {
	tr := obs.NewTracer(nil)
	ctx := obs.WithTracer(context.Background(), tr)
	e := New(Options{Metrics: obs.NewRegistry(nil)})
	c := memCircuit(t, 3, 3, 2e-2)
	if _, err := e.Evaluate(ctx, Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: 200000, Rounds: 3, Seed: 5,
		TargetFailures: 20,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"mc.evaluate"`) {
		t.Errorf("trace missing mc.evaluate span:\n%s", out)
	}
	if !strings.Contains(out, `"early-stop"`) {
		t.Errorf("trace missing early-stop event:\n%s", out)
	}
}
