package caliqec

// One benchmark per paper table/figure (regenerating it end to end through
// internal/exp) plus micro-benchmarks of the substrates that dominate the
// Monte-Carlo experiments. The experiment index in DESIGN.md §4 maps each
// BenchmarkFig*/BenchmarkTable* to its paper artifact.

import (
	"bytes"
	"caliqec/internal/analysis"
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/dem"
	"caliqec/internal/exp"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"caliqec/internal/runtime"
	"caliqec/internal/sim"
	"caliqec/internal/stream"
	"caliqec/internal/workload"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run := exp.All()[id]
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := run(ctx, uint64(2025+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Paper tables and figures ---

func BenchmarkFig1Drift(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkFig7Grouping(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig9Distribution(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10LERTrajectory(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Reduction(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12SpaceTime(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13RealDevice(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkTable1Instructions(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFitLERModel(b *testing.B)        { benchExperiment(b, "fit") }

// BenchmarkTable2 regenerates the full Table 2 comparison (12 rows × 3
// strategies); one iteration is the whole table.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Extension experiments (DESIGN.md §4, extension table).
func BenchmarkCycleLER(b *testing.B)       { benchExperiment(b, "cycle") }
func BenchmarkAblateDecoder(b *testing.B)  { benchExperiment(b, "ablate-decoder") }
func BenchmarkAblateDeltaD(b *testing.B)   { benchExperiment(b, "ablate-deltad") }
func BenchmarkAblatePriors(b *testing.B)   { benchExperiment(b, "ablate-priors") }
func BenchmarkAblateSchedule(b *testing.B) { benchExperiment(b, "ablate-schedule") }
func BenchmarkRouting(b *testing.B)        { benchExperiment(b, "routing") }
func BenchmarkLocalizeDrift(b *testing.B)  { benchExperiment(b, "localize") }
func BenchmarkDecodeCost(b *testing.B)     { benchExperiment(b, "decode-cost") }

// BenchmarkTable2Row times a single Table 2 cell (Hubbard-10-10, d=25,
// CaliQEC) for finer-grained regression tracking.
func BenchmarkTable2Row(b *testing.B) {
	cfg := runtime.Config{Prog: workload.Hubbard(10, 10), D: 25, RetryTarget: 0.01, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Run(context.Background(), cfg, runtime.StrategyCaliQEC); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func memoryCircuit(b *testing.B, d int) *code.Patch {
	b.Helper()
	return code.NewPatch(lattice.NewSquare(d))
}

// BenchmarkFrameSampler measures Monte-Carlo throughput, in shots per
// second, of the frame sampler alone on the ler-sweep points: square
// memory circuits with d ∈ {5, 7} and p ∈ {2e-3, 5e-3}, rounds = d.
func BenchmarkFrameSampler(b *testing.B) {
	for _, d := range []int{5, 7} {
		for _, p := range []float64{2e-3, 5e-3} {
			b.Run(fmt.Sprintf("d%d-p%g", d, p), func(b *testing.B) {
				c, err := memoryCircuit(b, d).MemoryCircuit(code.MemoryOptions{Rounds: d, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
				if err != nil {
					b.Fatal(err)
				}
				fs := sim.NewFrameSimulator(c, rng.New(1))
				const shotsPerOp = 6400
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fs.Sample(shotsPerOp, func(sim.BatchResult) {})
				}
				b.ReportMetric(float64(shotsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
			})
		}
	}
}

// BenchmarkDEMExtraction measures circuit→DEM lowering: a d=5 memory
// circuit, the calibration timelines of the calib-cycle workload
// (pristine → centre data qubit isolated → reintegrated, 3 rounds per
// epoch) on square d=5 and heavy-hex d=3, and the d=13 memory circuit the
// fleet soak serves.
func BenchmarkDEMExtraction(b *testing.B) {
	memory := func(d int) func() (*circuit.Circuit, error) {
		return func() (*circuit.Circuit, error) {
			return memoryCircuit(b, d).MemoryCircuit(code.MemoryOptions{Rounds: d, Basis: lattice.BasisZ, Noise: code.UniformNoise(1e-3)})
		}
	}
	timeline := func(lat func() *lattice.Lattice) func() (*circuit.Circuit, error) {
		return func() (*circuit.Circuit, error) {
			l := lat()
			df := deform.NewDeformer(code.NewPatch(l))
			if _, err := df.IsolateQubit(l.DataID[[2]int{l.Rows / 2, l.Cols / 2}], "cal"); err != nil {
				return nil, err
			}
			return code.TimelineCircuit([]code.Epoch{
				{Patch: code.NewPatch(lat()), Rounds: 3},
				{Patch: df.Patch, Rounds: 3},
				{Patch: code.NewPatch(lat()), Rounds: 3},
			}, code.TimelineOptions{Basis: lattice.BasisZ, Noise: code.UniformNoise(1e-3)})
		}
	}
	for _, bc := range []struct {
		name  string
		build func() (*circuit.Circuit, error)
	}{
		{"memory-d5", memory(5)},
		{"timeline-square-d5", timeline(func() *lattice.Lattice { return lattice.NewSquare(5) })},
		{"timeline-heavyhex-d3", timeline(func() *lattice.Lattice { return lattice.NewHeavyHex(3) })},
		{"memory-d13", memory(13)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := bc.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dem.FromCircuit(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnionFindDecode measures union-find decoding on pre-drawn
// syndromes of shots that fired at least one detector: the ler-sweep grid
// (square d ∈ {3,5,7} × p ∈ {2e-3, 3.5e-3, 5e-3}, rounds = d) and the
// d=13, p=1e-3 memory circuit the fleet soak serves. One op is one decode.
func BenchmarkUnionFindDecode(b *testing.B) {
	type point struct {
		d int
		p float64
	}
	var points []point
	for _, d := range []int{3, 5, 7} {
		for _, p := range []float64{2e-3, 3.5e-3, 5e-3} {
			points = append(points, point{d, p})
		}
	}
	points = append(points, point{13, 1e-3})
	for _, pt := range points {
		b.Run(fmt.Sprintf("d%d-p%g", pt.d, pt.p), func(b *testing.B) {
			c, err := memoryCircuit(b, pt.d).MemoryCircuit(code.MemoryOptions{Rounds: pt.d, Basis: lattice.BasisZ, Noise: code.UniformNoise(pt.p)})
			if err != nil {
				b.Fatal(err)
			}
			m, err := dem.FromCircuit(c)
			if err != nil {
				b.Fatal(err)
			}
			g, err := decoder.BuildGraph(m)
			if err != nil {
				b.Fatal(err)
			}
			dec := decoder.NewUnionFind(g)
			syndromes := firedSyndromes(c, 1024, 3)
			defects := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syn := syndromes[i%len(syndromes)]
				defects += len(syn)
				dec.Decode(syn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/decode")
			b.ReportMetric(float64(defects)/float64(b.N), "defects/decode")
		})
	}
}

// firedSyndromes samples c until it holds n syndromes that fired at least
// one detector.
func firedSyndromes(c *circuit.Circuit, n int, seed uint64) [][]int {
	fs := sim.NewFrameSimulator(c, rng.New(seed))
	var out [][]int
	fs.SampleWhile(1<<30, func(res sim.BatchResult) bool {
		for s := 0; s < res.Shots && len(out) < n; s++ {
			var syn []int
			for di := range res.Detectors {
				if res.Detectors[di][s/64]>>uint(s%64)&1 == 1 {
					syn = append(syn, di)
				}
			}
			if len(syn) > 0 {
				out = append(out, syn)
			}
		}
		return len(out) < n
	})
	return out
}

// BenchmarkGreedyDecode benchmarks the MWPM-style baseline decoder.
func BenchmarkGreedyDecode(b *testing.B) {
	p := memoryCircuit(b, 3)
	c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(2e-3)})
	if err != nil {
		b.Fatal(err)
	}
	m, err := dem.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	g, err := decoder.BuildGraph(m)
	if err != nil {
		b.Fatal(err)
	}
	dec := decoder.NewGreedy(g)
	syn := []int{1, 4, 7, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(syn)
	}
}

// BenchmarkEngineCachedSweep compares a parameter sweep that re-evaluates
// the same circuit through a cold engine (fresh cache every iteration, so
// every Evaluate pays DEM extraction + graph construction) against the warm
// path (shared engine, cache hit). The gap is the amortized setup cost the
// mc engine's fingerprint cache saves across sweeps like FitLERModel;
// cmd/benchgate caps cold at 8× warm (cold_warm_ratio).
func BenchmarkEngineCachedSweep(b *testing.B) {
	p := memoryCircuit(b, 5)
	c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 5, Basis: lattice.BasisZ, Noise: code.UniformNoise(2e-3)})
	if err != nil {
		b.Fatal(err)
	}
	spec := func(i int) mc.Spec {
		return mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: 256, Rounds: 5, RNG: rng.New(uint64(i + 1)),
		}
	}
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mc.New(mc.Options{}).Evaluate(ctx, spec(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := mc.New(mc.Options{})
		if _, err := eng.Evaluate(ctx, spec(0)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(ctx, spec(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineBatchSweep measures the tentpole batching win: an 8-patch
// parameter sweep (8 structurally distinct d=3 circuits at different noise
// levels) evaluated one spec at a time versus as one EvaluateBatch over the
// shared chunk scheduler. "cold" pays DEM extraction + graph construction
// per circuit (fresh engine each iteration); "warm" isolates the steady
// state (caches primed, simulator/decoder pools populated), where allocs/op
// is the number to watch. CI asserts batch-cold beats sequential-cold by at
// least 1.0× on multi-core runners (cmd/benchgate).
func BenchmarkEngineBatchSweep(b *testing.B) {
	const (
		patches = 8
		shots   = 4096
	)
	specs := make([]mc.Spec, patches)
	for i := 0; i < patches; i++ {
		p := memoryCircuit(b, 3)
		noise := 1.5e-3 + 0.5e-3*float64(i)
		c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(noise)})
		if err != nil {
			b.Fatal(err)
		}
		// Seed (not RNG) keeps the specs reusable across b.N iterations.
		specs[i] = mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: shots, Rounds: 3, Seed: uint64(i + 1),
		}
	}
	ctx := context.Background()
	sequential := func(b *testing.B, eng *mc.Engine) {
		for _, s := range specs {
			if _, err := eng.Evaluate(ctx, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	batch := func(b *testing.B, eng *mc.Engine) {
		if _, err := eng.EvaluateBatch(ctx, specs); err != nil {
			b.Fatal(err)
		}
	}
	for _, bench := range []struct {
		name string
		run  func(*testing.B, *mc.Engine)
	}{
		{"sequential-cold", sequential},
		{"batch-cold", batch},
		{"sequential-warm", sequential},
		{"batch-warm", batch},
	} {
		warm := bench.name == "sequential-warm" || bench.name == "batch-warm"
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			if warm {
				eng := mc.New(mc.Options{})
				bench.run(b, eng) // prime caches and pools
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bench.run(b, eng)
				}
				return
			}
			for i := 0; i < b.N; i++ {
				bench.run(b, mc.New(mc.Options{}))
			}
		})
	}
}

// BenchmarkStreamReplay measures the trace replay path end to end on a
// recorded d=3 trace: "read" is pure framing (parse + CRC, no decode),
// "serial" adds single-threaded FrameDecoder scoring on top of it,
// "pipeline" is the production stream.Replay worker pipeline, and
// "windowed" decodes the same frames through a sliding 3-round window,
// timing every IngestRound, and "estimator" is the pipeline with the drift
// monitor enabled. CI asserts the pipeline does not regress below the
// serial baseline, that the windowed per-round p99 latency stays under
// budget, and that the estimator costs at most a bounded fraction of
// pipeline throughput (cmd/benchgate, BENCH_stream.json); frames/s
// is the throughput trajectory number.
func BenchmarkStreamReplay(b *testing.B) {
	p := memoryCircuit(b, 3)
	c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(3e-3)})
	if err != nil {
		b.Fatal(err)
	}
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 4096, Rounds: 3, Seed: 11}
	var buf bytes.Buffer
	if _, err := stream.Record(context.Background(), spec, &buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	fd, err := mc.New(mc.Options{}).FrameDecoder(c, decoder.KindUnionFind)
	if err != nil {
		b.Fatal(err)
	}
	frames := spec.Shots
	reportRate := func(b *testing.B) {
		b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	}
	ctx := context.Background()

	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		var f stream.Frame
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if err := r.Next(&f); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
		reportRate(b)
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var f stream.Frame
		syn := make([]int, 0, c.NumDetectors)
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			failures := 0
			for {
				if err := r.Next(&f); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				syn = f.Syndrome(syn[:0])
				if fd.ScoreFrame(syn, f.Obs) {
					failures++
				}
			}
			if failures == 0 {
				b.Fatal("benchmark vacuous: no failures in the recorded trace")
			}
		}
		reportRate(b)
	})
	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			stats, err := stream.Replay(ctx, r, fd, stream.PipelineOptions{Metrics: obs.Discard})
			if err != nil {
				b.Fatal(err)
			}
			if stats.Frames != frames {
				b.Fatalf("replayed %d frames, want %d", stats.Frames, frames)
			}
		}
		reportRate(b)
	})
	// Sliding-window decoding over the same trace, with every IngestRound
	// timed individually. round_p99_ns is the per-round decode latency the
	// bounded-latency contract is about: the p99 across all rounds of all
	// frames must stay under the budget cmd/benchgate enforces.
	b.Run("windowed", func(b *testing.B) {
		b.ReportAllocs()
		m, err := dem.FromCircuit(c)
		if err != nil {
			b.Fatal(err)
		}
		g, err := decoder.BuildGraph(m)
		if err != nil {
			b.Fatal(err)
		}
		const window = 3
		w, err := decoder.NewWindowed(g, window)
		if err != nil {
			b.Fatal(err)
		}
		// Pre-split every frame into per-round syndromes so the timed loop
		// measures ingest+decode, not trace parsing.
		r, err := stream.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		var frameRounds [][][]int
		var f stream.Frame
		for {
			if err := r.Next(&f); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			syn := f.Syndrome(nil)
			rounds := make([][]int, g.NumRounds)
			i := 0
			for rr := 0; rr < g.NumRounds; rr++ {
				j := i
				for j < len(syn) && g.NodeRound[syn[j]] == rr {
					j++
				}
				rounds[rr] = syn[i:j]
				i = j
			}
			frameRounds = append(frameRounds, rounds)
		}
		var lat obs.Histogram
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, rounds := range frameRounds {
				w.Reset()
				for _, rs := range rounds {
					t0 := time.Now()
					if err := w.IngestRound(rs); err != nil {
						b.Fatal(err)
					}
					lat.Observe(time.Since(t0).Nanoseconds())
				}
				_ = w.Flush()
			}
		}
		b.StopTimer()
		reportRate(b)
		b.ReportMetric(lat.Quantile(0.99), "round_p99_ns")
	})
	// The estimator variant re-runs the pipeline with drift monitoring on:
	// the ns/op delta against "pipeline" is the estimator overhead the CI
	// budget in cmd/benchgate bounds.
	b.Run("estimator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			stats, err := stream.Replay(ctx, r, fd, stream.PipelineOptions{
				Metrics:   obs.Discard,
				Estimator: stream.EstimatorConfig{Window: 256},
			})
			if err != nil {
				b.Fatal(err)
			}
			if stats.Frames != frames {
				b.Fatalf("replayed %d frames, want %d", stats.Frames, frames)
			}
		}
		reportRate(b)
	})
}

// BenchmarkFleetServe drives the multi-tenant decode fleet end to end over
// loopback TCP: per op, 256 concurrent clients stream a recorded d=3 trace
// across 4 tenants through one shared worker pool. Frames per stream stays
// under the stream-queue bound, so admission is deterministic and nothing
// sheds — every sent frame is decoded. frames/s is the aggregate decode
// throughput; fleet_p99_ns is the p99 of the pool's decode-latency
// histogram, whose samples are the per-frame means of claimed spans, and is
// the SLO number cmd/benchgate gates in BENCH_stream.json
// (fleet_p99_budget_ns).
func BenchmarkFleetServe(b *testing.B) {
	const (
		streams = 256
		frames  = 512
		tenants = 4
	)
	p := memoryCircuit(b, 3)
	c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(3e-3)})
	if err != nil {
		b.Fatal(err)
	}
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: frames, Rounds: 3, Seed: 17}
	var buf bytes.Buffer
	if _, err := stream.Record(context.Background(), spec, &buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	hr, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	// One trace per tenant: same frame bytes, re-encoded header tenant.
	traces := make([][]byte, tenants)
	for i := range traces {
		h := hr.Header()
		h.Tenant = uint32(1 + i)
		var hb bytes.Buffer
		if _, err := stream.NewWriter(&hb, h); err != nil {
			b.Fatal(err)
		}
		traces[i] = append(hb.Bytes(), raw[hb.Len():]...)
	}
	fd, err := mc.New(mc.Options{}).FrameDecoder(c, decoder.KindUnionFind)
	if err != nil {
		b.Fatal(err)
	}

	reg := obs.NewRegistry(nil)
	srv := stream.NewServer(stream.Config{Backpressure: stream.Shed, StreamQueue: frames, Metrics: reg},
		func(stream.Header) (stream.FrameScorer, error) { return fd, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	addr := ln.Addr().String()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, streams)
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errs[s] = err
					return
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(2 * time.Minute))
				sum, err := stream.SendTrace(conn.(*net.TCPConn), bytes.NewReader(traces[s%tenants]))
				if err != nil {
					errs[s] = err
				} else if sum.Frames != frames || sum.Shed != 0 {
					errs[s] = fmt.Errorf("stream %d: %d admitted / %d shed, want %d / 0", s, sum.Frames, sum.Shed, frames)
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	cancel()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(streams*frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(reg.Histogram("fleet.decode.latency").Quantile(0.99), "fleet_p99_ns")
}

// BenchmarkIsolateReintegrate measures one full isolation/reintegration
// deformation cycle on a d=7 square patch.
func BenchmarkIsolateReintegrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := code.NewPatch(lattice.NewSquare(7))
		d := deform.NewDeformer(p)
		q := p.Lat.DataID[[2]int{3, 3}]
		if _, err := d.IsolateQubit(q, "bench"); err != nil {
			b.Fatal(err)
		}
		if err := d.Reintegrate("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatchDistance measures matching-graph distance computation.
func BenchmarkPatchDistance(b *testing.B) {
	p := code.NewPatch(lattice.NewSquare(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Distance(lattice.BasisX) != 11 {
			b.Fatal("wrong distance")
		}
	}
}

// BenchmarkTableauRound measures the exact reference simulator on one d=3
// syndrome round.
func BenchmarkTableauRound(b *testing.B) {
	p := memoryCircuit(b, 3)
	c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 1, Basis: lattice.BasisZ})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunNoiseless(c, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline runs the full public-API pipeline (characterize,
// compile, one runtime interval) on a d=5 system.
func BenchmarkPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(Square, 5, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := sys.Compile(sys.Characterize(), 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunInterval(plan, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead isolates the cost of the observability layer on the
// hot cached-sweep path: the same warm-engine Evaluate loop as
// BenchmarkEngineCachedSweep, once with metrics discarded (nil handles,
// every record a no-op) and once recording into a live registry. CI asserts
// the live path stays within 5% of the discard path — the budget the obs
// layer is allowed to cost a sweep.
func BenchmarkObsOverhead(b *testing.B) {
	p := memoryCircuit(b, 5)
	c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 5, Basis: lattice.BasisZ, Noise: code.UniformNoise(2e-3)})
	if err != nil {
		b.Fatal(err)
	}
	spec := func(i int) mc.Spec {
		return mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: 256, Rounds: 5, RNG: rng.New(uint64(i + 1)),
		}
	}
	ctx := context.Background()
	warm := func(b *testing.B, reg *obs.Registry) {
		eng := mc.New(mc.Options{Metrics: reg})
		if _, err := eng.Evaluate(ctx, spec(0)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(ctx, spec(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("discard", func(b *testing.B) { warm(b, obs.Discard) })
	b.Run("recording", func(b *testing.B) { warm(b, obs.NewRegistry(nil)) })
}

// BenchmarkLintRepo times one full caliqec-lint pass — load, type-check and
// all analysis rules (CFG construction and dataflow included) over the whole
// module. One op is exactly what the CI lint step pays; the budget in
// cmd/benchgate keeps the flow-sensitive rule pack from turning the
// lint gate into the slowest job in the pipeline. A nonzero finding count
// fails the benchmark, so the perf gate doubles as a repo-clean check.
func BenchmarkLintRepo(b *testing.B) {
	rules := analysis.AllRules()
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.Load(".", "./...")
		if err != nil {
			b.Fatal(err)
		}
		if diags := analysis.Run(pkgs, rules); len(diags) != 0 {
			b.Fatalf("lint found %d violation(s), first: %s", len(diags), diags[0])
		}
	}
}
