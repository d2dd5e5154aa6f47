package main

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/dem"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/noise"
	"caliqec/internal/obs"
	"caliqec/internal/sim"
)

// sweepRates are the physical error rates of the fit experiment's grid.
var sweepRates = []float64{2e-3, 3.5e-3, 5e-3}

// tally counts the work of a stage-by-stage re-execution.
type tally struct {
	failures int64
	shots    int64 // shots sampled (or frames read)
	decodes  int64 // ScoreFrame calls
	defects  int64 // fired detectors over those calls
}

func (t *tally) add(u tally) {
	t.failures += u.failures
	t.shots += u.shots
	t.decodes += u.decodes
	t.defects += u.defects
}

// recount re-executes spec's evaluation outside the engine's chunk
// scheduler. mc.SampleChunks draws exactly the shots Evaluate drew (same
// seed, same chunking); every shot with a fired detector is scored with
// FrameDecoder.ScoreFrame, and a shot with an empty syndrome fails exactly
// when the decoder's empty-syndrome prediction misses its observables. The
// failure count must therefore equal Evaluate's. With a tracer in ctx the
// sampler runs under a "sim.sample" span, and each sampler batch's
// syndrome gather and decoding under "mc.gather" and "decoder.decode"
// child spans.
func recount(ctx context.Context, spec mc.Spec, fd *mc.FrameDecoder) (tally, error) {
	sctx, span := obs.StartSpan(ctx, "sim.sample")
	defer span.End()
	var (
		t      tally
		syn    [sim.LaneShots][]int
		actual [sim.LaneShots]uint64
		fired  = make([]int, 0, sim.LaneShots)
		empty  = fd.DecodeFrame(nil)
	)
	err := mc.SampleChunks(obs.WithTracer(ctx, nil), spec, func(b sim.BatchResult) error {
		_, gather := obs.StartSpan(sctx, "mc.gather")
		fired = fired[:0]
		for w := 0; w < b.Words(); w++ {
			valid := ^uint64(0)
			if rem := b.Shots - 64*w; rem < 64 {
				valid = uint64(1)<<uint(rem) - 1
			}
			var hit uint64
			for d := range b.Detectors {
				hit |= b.Detectors[d][w]
			}
			if empty == 0 {
				var flipped uint64
				for o := range b.Observables {
					flipped |= b.Observables[o][w]
				}
				t.failures += int64(bits.OnesCount64(flipped &^ hit & valid))
			} else {
				hit = valid // a nonzero empty prediction: decode every shot
			}
			for m := hit; m != 0; m &= m - 1 {
				s := 64*w + bits.TrailingZeros64(m)
				syn[s], actual[s] = syn[s][:0], 0
				fired = append(fired, s)
			}
			for d := range b.Detectors {
				for word := b.Detectors[d][w] & hit; word != 0; word &= word - 1 {
					s := 64*w + bits.TrailingZeros64(word)
					syn[s] = append(syn[s], d)
				}
			}
			for o := range b.Observables {
				for word := b.Observables[o][w] & hit; word != 0; word &= word - 1 {
					actual[64*w+bits.TrailingZeros64(word)] |= 1 << uint(o)
				}
			}
		}
		gather.End()
		_, decode := obs.StartSpan(sctx, "decoder.decode")
		for _, s := range fired {
			if fd.ScoreFrame(syn[s], actual[s]) {
				t.failures++
			}
			t.defects += int64(len(syn[s]))
		}
		decode.End()
		t.decodes += int64(len(fired))
		t.shots += int64(b.Shots)
		return nil
	})
	return t, err
}

// extract runs DEM extraction and graph construction directly, each under
// its span, for the per-layer times of a circuit the engine builds itself
// (the engine's cache hides both). It returns the mechanism count.
func extract(ctx context.Context, c *circuit.Circuit) (int, error) {
	_, span := obs.StartSpan(ctx, "dem.extract")
	m, err := dem.FromCircuit(c)
	span.End()
	if err != nil {
		return 0, err
	}
	_, span = obs.StartSpan(ctx, "decoder.graph")
	_, err = decoder.BuildGraph(m)
	span.End()
	return len(m.Mechanisms), err
}

// demStats accumulates the DEMs a traced run extracted directly.
type demStats struct {
	extracted, mechanisms int64
}

func (d *demStats) layers(sp spanTable, out map[string]float64) {
	if d.extracted == 0 {
		return
	}
	n := float64(d.extracted)
	out["dem.extract_ms"] = sp.ns("dem.extract") / n / 1e6
	out["decoder.graph_ms"] = sp.ns("decoder.graph") / n / 1e6
	out["dem.mechanisms"] = float64(d.mechanisms) / n
}

// mcLayers fills the per-layer metrics shared by the two Monte-Carlo
// workloads from the traced recounts (t) and the one-worker reference
// evaluations ("mc.evaluate.w1" spans). cold marks an op whose Evaluate
// extracts the DEM and builds the graph itself, so those stages belong to
// the op.
func mcLayers(sp spanTable, t tally, cold bool, out map[string]float64) {
	sample, gather, decode := sp.ns("sim.sample"), sp.ns("mc.gather"), sp.ns("decoder.decode")
	shots := float64(t.shots)
	out["sim.sample_ns_per_shot"] = ratio(sample, shots)
	out["mc.gather_ns_per_shot"] = ratio(gather, shots)
	out["decoder.decode_ns"] = ratio(decode, float64(t.decodes))
	out["decoder.decodes_per_shot"] = ratio(float64(t.decodes), shots)
	out["decoder.defects_per_decode"] = ratio(float64(t.defects), float64(t.decodes))
	stages := sample + gather + decode
	if cold {
		stages += sp.ns("dem.extract", "decoder.graph")
	}
	w1 := sp.ns("mc.evaluate.w1")
	out["mc.overhead_share"] = 1 - ratio(stages, w1)
	// Both timings come from the traced pass, verdict by verdict, so host
	// noise hits them alike.
	perOp := func(name string) float64 { return ratio(sp.ns(name), float64(sp.calls[name])) }
	out["mc.speedup_nproc"] = ratio(perOp("mc.evaluate.w1"), perOp("mc.evaluate"))
}

// cacheDelta counts the engine cache lookups of the ops themselves.
type cacheDelta struct{ hits, misses uint64 }

func (c *cacheDelta) around(e *mc.Engine, f func() error) error {
	h0, m0, _ := e.CacheStats()
	err := f()
	h1, m1, _ := e.CacheStats()
	c.hits += h1 - h0
	c.misses += m1 - m0
	return err
}

func (c *cacheDelta) ratio() float64 { return ratio(float64(c.hits), float64(c.hits+c.misses)) }

// parallel runs f(0..n-1) on up to workers goroutines and returns the
// first error.
func parallel(n, workers int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// mix derives an independent 64-bit seed from the workload seed and an
// op's coordinates (splitmix64 finalizer per step).
func mix(seed uint64, parts ...uint64) uint64 {
	z := seed
	for _, p := range append(parts, 0) {
		z += 0x9e3779b97f4a7c15 ^ p
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// memoryCircuit builds a pristine square memory circuit under a
// "code.circuit" span.
func memoryCircuit(ctx context.Context, d, rounds int, p float64) (*circuit.Circuit, error) {
	_, span := obs.StartSpan(ctx, "code.circuit")
	defer span.End()
	return code.NewPatch(lattice.NewSquare(d)).MemoryCircuit(code.MemoryOptions{
		Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p),
	})
}

// ---- ler-sweep -------------------------------------------------------

// sweep is the warm Monte-Carlo LER sweep: each verdict is one
// EvaluateBatch over the fit grid plus d=7, on an engine whose cache was
// primed in set-up.
type sweep struct {
	cfg      config
	eng      *mc.Engine
	circuits []*circuit.Circuit
	rounds   []int
	fds      []*mc.FrameDecoder

	// oracle memoizes the recounted failures per verdict key: verdict k
	// uses the seeds of key k mod size.sweepKeys, so the recount cost is
	// bounded while every op is still checked.
	oracle map[int][]int64

	cache cacheDelta
	dems  demStats
	trace tally
}

func setupSweep(ctx context.Context, cfg config) (instance, error) {
	s := &sweep{cfg: cfg, eng: mc.New(mc.Options{}), oracle: map[int][]int64{}}
	for _, d := range cfg.size.sweepDistances {
		for _, p := range sweepRates {
			c, err := memoryCircuit(ctx, d, d, p)
			if err != nil {
				return nil, err
			}
			s.circuits = append(s.circuits, c)
			s.rounds = append(s.rounds, d)
		}
	}
	if obs.TracerFrom(ctx) != nil {
		for _, c := range s.circuits {
			n, err := extract(ctx, c)
			if err != nil {
				return nil, err
			}
			s.dems.extracted++
			s.dems.mechanisms += int64(n)
		}
	}
	// Prime the cache: one frame decoder per circuit builds its DEM and
	// graph; the recounts reuse the decoders.
	s.fds = make([]*mc.FrameDecoder, len(s.circuits))
	_, span := obs.StartSpan(ctx, "mc.prime")
	err := parallel(len(s.circuits), cfg.workers, func(i int) error {
		var err error
		s.fds[i], err = s.eng.FrameDecoder(s.circuits[i], decoder.KindUnionFind)
		return err
	})
	span.End()
	return s, err
}

func (s *sweep) specs(k, workers int) []mc.Spec {
	key := uint64(k % s.cfg.size.sweepKeys)
	specs := make([]mc.Spec, len(s.circuits))
	for j, c := range s.circuits {
		specs[j] = mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind, Shots: s.cfg.size.sweepShots,
			Rounds: s.rounds[j], Seed: mix(s.cfg.seed, key, uint64(j)), Workers: workers,
		}
	}
	return specs
}

func (s *sweep) run(ctx context.Context, ph *phase) error {
	plain := obs.WithTracer(ctx, nil)
	return ph.loop(ctx, func(ctx context.Context, k int) (int64, func() error, error) {
		specs := s.specs(k, s.cfg.workers)
		var res []mc.Result
		_, span := obs.StartSpan(ctx, "mc.evaluate")
		err := s.cache.around(s.eng, func() (err error) {
			res, err = s.eng.EvaluateBatch(plain, specs)
			return err
		})
		span.End()
		shots := int64(len(specs) * s.cfg.size.sweepShots)
		return shots, func() error { return s.check(ctx, k, specs, res) }, err
	})
}

// check verifies one verdict: every spec spent its whole budget, and its
// failure count equals the stage-by-stage recount. In a traced run the
// recount is the traced re-execution, preceded by the same batch at one
// worker for the reference time.
func (s *sweep) check(ctx context.Context, k int, specs []mc.Spec, res []mc.Result) error {
	for j, r := range res {
		if r.Shots != specs[j].Shots || r.Requested != specs[j].Shots || r.EarlyStopped {
			return fmt.Errorf("spec %d: %d of %d shots: %w", j, r.Shots, specs[j].Shots, errOracle)
		}
	}
	var want []int64
	if obs.TracerFrom(ctx) != nil {
		_, span := obs.StartSpan(ctx, "mc.evaluate.w1")
		ref, err := s.eng.EvaluateBatch(obs.WithTracer(ctx, nil), s.specs(k, 1))
		span.End()
		if err != nil {
			return err
		}
		for j := range ref {
			if ref[j].Failures != res[j].Failures {
				return fmt.Errorf("spec %d: one-worker EvaluateBatch counted %d failures, %d workers %d: %w",
					j, ref[j].Failures, s.cfg.workers, res[j].Failures, errOracle)
			}
		}
		rctx, span := obs.StartSpan(ctx, "mc.recount")
		defer span.End()
		for j, spec := range specs {
			t, err := recount(rctx, spec, s.fds[j])
			if err != nil {
				return err
			}
			s.trace.add(t)
			want = append(want, t.failures)
		}
	} else {
		var err error
		if want, err = s.recountKey(ctx, k, specs); err != nil {
			return err
		}
	}
	for j, r := range res {
		if int64(r.Failures) != want[j] {
			return fmt.Errorf("spec %d: Evaluate counted %d failures, recount %d: %w", j, r.Failures, want[j], errOracle)
		}
	}
	return nil
}

// recountKey returns the recounted failures of verdict k's key, recounting
// its specs in parallel the first time the key is seen.
func (s *sweep) recountKey(ctx context.Context, k int, specs []mc.Spec) ([]int64, error) {
	key := k % s.cfg.size.sweepKeys
	if want, ok := s.oracle[key]; ok {
		return want, nil
	}
	want := make([]int64, len(specs))
	err := parallel(len(specs), s.cfg.workers, func(j int) error {
		t, err := recount(ctx, specs[j], s.fds[j])
		want[j] = t.failures
		return err
	})
	if err != nil {
		return nil, err
	}
	s.oracle[key] = want
	return want, nil
}

func (s *sweep) layers(sp spanTable, traced *phase) map[string]float64 {
	out := map[string]float64{}
	mcLayers(sp, s.trace, false, out)
	s.dems.layers(sp, out)
	out["mc.cache_hit_ratio"] = s.cache.ratio()
	out["trace.coverage"] = 1 - out["mc.overhead_share"]
	return out
}

func (s *sweep) close() error { return nil }

// ---- calib-cycle -----------------------------------------------------

// calibRounds is the rounds per epoch of the pristine → isolated →
// reintegrated timeline.
const calibRounds = 3

// patchKind is one lattice the calibration loop deforms.
type patchKind struct {
	name     string
	new      func() *code.Patch
	interior []int // interior data qubits, in coordinate order
	offset   int   // seed-derived start in interior
}

// calib is the cold CaliQEC calibration loop: each verdict isolates one
// interior data qubit on a square d=5 patch and on a heavy-hex d=3 patch,
// builds each pristine → isolated → reintegrated timeline circuit at the
// current drifted noise rate, and evaluates it. The rate steps along
// p(t) = p0·10^(t/T_drift), so every circuit is new to the cache.
type calib struct {
	cfg      config
	eng      *mc.Engine
	patches  []patchKind
	drift    noise.Drift
	verdicts int // verdicts run so far

	cache cacheDelta
	dems  demStats
	trace tally
}

func setupCalib(ctx context.Context, cfg config) (instance, error) {
	s := &calib{
		cfg: cfg,
		eng: mc.New(mc.Options{}),
		// One minute of drift per verdict at the measured mean drift
		// constant; see driftHours.
		drift: noise.Drift{P0: noise.InitialErrorRate, TDrift: noise.CurrentDriftMeanHours},
		patches: []patchKind{
			{name: "square-d5", new: func() *code.Patch { return code.NewPatch(lattice.NewSquare(5)) }},
			{name: "heavyhex-d3", new: func() *code.Patch { return code.NewPatch(lattice.NewHeavyHex(3)) }},
		},
	}
	plain := obs.WithTracer(ctx, nil)
	for i := range s.patches {
		pk := &s.patches[i]
		lat := pk.new().Lat
		rows, cols := lat.Rows, lat.Cols
		coords := make([][2]int, 0, len(lat.DataID))
		for rc := range lat.DataID {
			if rc[0] > 0 && rc[1] > 0 && rc[0] < rows-1 && rc[1] < cols-1 {
				coords = append(coords, rc)
			}
		}
		sort.Slice(coords, func(a, b int) bool {
			if coords[a][0] != coords[b][0] {
				return coords[a][0] < coords[b][0]
			}
			return coords[a][1] < coords[b][1]
		})
		for _, rc := range coords {
			pk.interior = append(pk.interior, lat.DataID[rc])
		}
		if len(pk.interior) == 0 {
			return nil, fmt.Errorf("%s: no interior data qubit", pk.name)
		}
		pk.offset = int(mix(cfg.seed, 0xca11b, uint64(i)) % uint64(len(pk.interior)))

		// The pristine reference: the static code over the timeline's rounds.
		_, span := obs.StartSpan(ctx, "code.circuit")
		c, err := pk.new().MemoryCircuit(code.MemoryOptions{
			Rounds: 3 * calibRounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(s.drift.P0),
		})
		span.End()
		if err != nil {
			return nil, err
		}
		spec := mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind, Shots: cfg.size.calibShots,
			Rounds: 3 * calibRounds, Seed: mix(cfg.seed, 0x7ef, uint64(i)), Workers: cfg.workers,
		}
		_, span = obs.StartSpan(ctx, "mc.reference")
		res, err := s.eng.Evaluate(plain, spec)
		span.End()
		if err != nil {
			return nil, err
		}
		if err := s.verify(plain, spec, res); err != nil {
			return nil, fmt.Errorf("%s pristine reference: %w", pk.name, err)
		}
	}
	return s, nil
}

// driftHours is the drift time of verdict k: one minute per calibration,
// wrapping after 256 so the rate stays within about 2× of p0 however long
// a run lasts. No (qubit, rate) pair repeats within 256 verdicts.
func driftHours(k int) float64 { return float64(k%256) / 60 }

// verify checks one evaluation: the whole budget was spent and the
// stage-by-stage recount agrees exactly. The recount reuses the engine's
// cache entry, which the evaluation just built.
func (s *calib) verify(ctx context.Context, spec mc.Spec, res mc.Result) error {
	if res.Shots != spec.Shots || res.Requested != spec.Shots || res.EarlyStopped {
		return fmt.Errorf("%d of %d shots: %w", res.Shots, spec.Shots, errOracle)
	}
	fd, err := s.eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		return err
	}
	t, err := recount(ctx, spec, fd)
	if err != nil {
		return err
	}
	if t.failures != int64(res.Failures) {
		return fmt.Errorf("Evaluate counted %d failures, recount %d: %w", res.Failures, t.failures, errOracle)
	}
	return nil
}

func (s *calib) run(ctx context.Context, ph *phase) error {
	return ph.loop(ctx, func(ctx context.Context, _ int) (int64, func() error, error) {
		// Verdicts count on across passes, so no pass repeats a circuit.
		k := s.verdicts
		s.verdicts++
		p := s.drift.At(driftHours(k))
		specs := make([]mc.Spec, 0, len(s.patches))
		results := make([]mc.Result, 0, len(s.patches))
		for i := range s.patches {
			spec, res, err := s.calibrate(ctx, k, i, p)
			if err != nil {
				return 0, nil, err
			}
			specs = append(specs, spec)
			results = append(results, res)
		}
		shots := int64(len(specs) * s.cfg.size.calibShots)
		return shots, func() error {
			for i := range specs {
				if err := s.checkOne(ctx, specs[i], results[i]); err != nil {
					return fmt.Errorf("%s: %w", s.patches[i].name, err)
				}
			}
			return nil
		}, nil
	})
}

// calibrate runs one calibration event on patch i: isolate the qubit,
// build the timeline circuit at rate p and evaluate it.
func (s *calib) calibrate(ctx context.Context, k, i int, p float64) (mc.Spec, mc.Result, error) {
	plain := obs.WithTracer(ctx, nil)
	pk := &s.patches[i]
	q := pk.interior[(k+pk.offset)%len(pk.interior)]
	_, span := obs.StartSpan(ctx, "deform.isolate")
	df := deform.NewDeformer(pk.new())
	_, err := df.IsolateQubit(q, "cal")
	span.End()
	if err != nil {
		return mc.Spec{}, mc.Result{}, err
	}
	_, span = obs.StartSpan(ctx, "code.timeline")
	c, err := code.TimelineCircuit([]code.Epoch{
		{Patch: pk.new(), Rounds: calibRounds},
		{Patch: df.Patch, Rounds: calibRounds},
		{Patch: pk.new(), Rounds: calibRounds},
	}, code.TimelineOptions{Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	span.End()
	if err != nil {
		return mc.Spec{}, mc.Result{}, err
	}
	spec := mc.Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: s.cfg.size.calibShots,
		Rounds: 3 * calibRounds, Seed: mix(s.cfg.seed, uint64(k), uint64(i)), Workers: s.cfg.workers,
	}
	var res mc.Result
	_, span = obs.StartSpan(ctx, "mc.evaluate")
	err = s.cache.around(s.eng, func() (err error) {
		res, err = s.eng.Evaluate(plain, spec)
		return err
	})
	span.End()
	return spec, res, err
}

// checkOne verifies one calibration event. In a traced run it re-executes
// the op stage by stage instead: the same evaluation at one worker on a
// fresh (cold) engine for the reference time, then DEM extraction, graph
// construction and the traced recount.
func (s *calib) checkOne(ctx context.Context, spec mc.Spec, res mc.Result) error {
	if obs.TracerFrom(ctx) == nil {
		return s.verify(ctx, spec, res)
	}
	plain := obs.WithTracer(ctx, nil)
	cold := mc.New(mc.Options{})
	w1 := spec
	w1.Workers = 1
	_, span := obs.StartSpan(ctx, "mc.evaluate.w1")
	ref, err := cold.Evaluate(plain, w1)
	span.End()
	if err != nil {
		return err
	}
	if ref.Failures != res.Failures {
		return fmt.Errorf("one-worker Evaluate counted %d failures, %d workers %d: %w", ref.Failures, s.cfg.workers, res.Failures, errOracle)
	}
	rctx, span := obs.StartSpan(ctx, "mc.recount")
	defer span.End()
	n, err := extract(rctx, spec.Circuit)
	if err != nil {
		return err
	}
	s.dems.extracted++
	s.dems.mechanisms += int64(n)
	fd, err := cold.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		return err
	}
	t, err := recount(rctx, spec, fd)
	if err != nil {
		return err
	}
	s.trace.add(t)
	if t.failures != int64(res.Failures) {
		return fmt.Errorf("Evaluate counted %d failures, recount %d: %w", res.Failures, t.failures, errOracle)
	}
	return nil
}

func (s *calib) layers(sp spanTable, traced *phase) map[string]float64 {
	out := map[string]float64{}
	mcLayers(sp, s.trace, true, out)
	s.dems.layers(sp, out)
	perCall := func(name string) float64 { return ratio(sp.ns(name), float64(sp.calls[name])) / 1e6 }
	out["deform.isolate_ms"] = perCall("deform.isolate")
	out["code.timeline_ms"] = perCall("code.timeline")
	out["mc.cache_hit_ratio"] = s.cache.ratio()
	// The op is isolate + timeline + Evaluate; the stages cover it when
	// their sum matches the calls with the one-worker Evaluate in its place.
	deformCode := sp.ns("deform.isolate", "code.timeline")
	stages := sp.ns("dem.extract", "decoder.graph", "sim.sample", "mc.gather", "decoder.decode")
	out["trace.coverage"] = ratio(deformCode+stages, deformCode+sp.ns("mc.evaluate.w1"))
	return out
}

func (s *calib) close() error { return nil }
