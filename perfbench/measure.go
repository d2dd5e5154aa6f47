package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"caliqec/internal/obs"
)

// endToEnd and perLayer are the metric sets a run prints, in BENCHMARK.json
// order; the package test checks them against that file.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"shots_per_s", "shots/s"},
	{"verdict_p50_ms", "ms"},
	{"cpu_us_per_shot", "us"},
	{"heap_live_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"sim.sample_ns_per_shot", "ns"},
	{"mc.gather_ns_per_shot", "ns"},
	{"decoder.decode_ns", "ns"},
	{"decoder.decodes_per_shot", "ratio"},
	{"decoder.defects_per_decode", "count"},
	{"dem.extract_ms", "ms"},
	{"dem.mechanisms", "count"},
	{"decoder.graph_ms", "ms"},
	{"deform.isolate_ms", "ms"},
	{"code.timeline_ms", "ms"},
	{"mc.overhead_share", "ratio"},
	{"mc.speedup_nproc", "ratio"},
	{"mc.cache_hit_ratio", "ratio"},
	{"stream.read_ns_per_frame", "ns"},
	{"stream.unpack_ns_per_frame", "ns"},
	{"stream.monitor_ns_per_frame", "ns"},
	{"stream.pipeline_ns_per_frame", "ns"},
	{"stream.health_streams", "count"},
	{"net.reads_per_frame", "ratio"},
	{"net.read_ns_per_frame", "ns"},
	{"net.write_ns_per_frame", "ns"},
	{"fleet.decode_busy_share", "ratio"},
	{"go.allocs_per_shot", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu    time.Duration // user+sys CPU (getrusage)
	allocs uint64        // heap objects allocated
	gcCPU  float64       // GC CPU seconds (runtime estimate)
	busy   float64       // non-idle CPU seconds (runtime estimate)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		busy:   s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.allocs - v.allocs, u.gcCPU - v.gcCPU, u.busy - v.busy}
}

func (u usage) add(v usage) usage {
	return usage{u.cpu + v.cpu, u.allocs + v.allocs, u.gcCPU + v.gcCPU, u.busy + v.busy}
}

// blockLen is the length of the blocks a timed phase is cut into. Rates
// and CPU per shot are medians over blocks, so a host slowdown covering
// less than half of a run does not move them.
const blockLen = time.Second

// block is one stretch of a timed phase.
type block struct {
	shots int64
	dt    time.Duration
	cpu   time.Duration
}

// phase is what one timed pass measured.
type phase struct {
	budget time.Duration
	// wall makes the budget count the checks too; the traced pass sets it,
	// since its checks re-execute every op stage by stage. Otherwise the
	// checks may stretch a phase to twice its budget of wall time, and no
	// further: a run of failing ops ends there too.
	wall bool

	verdicts []time.Duration // wall time of each verdict
	blocks   []block         // the phase cut into blockLen stretches
	shots    int64           // shots decoded (frames, for the stream workloads)
	elapsed  time.Duration   // time over which those shots were decoded
	use      usage           // resources spent over elapsed

	attempted, failed int
	problems          []string

	heapMB float64 // live heap after heapAfter verdicts; 0 until read
}

// heapAfter is the verdict after which the live heap is read. State that
// grows with every verdict (circuits the engine's fingerprint memo keeps
// alive, per-connection drift monitors) would otherwise make the figure
// follow throughput, and a faster commit would read as a heap regression.
const heapAfter = 16

// readHeap records the live heap the first time it is called after
// heapAfter verdicts; done is the number of verdicts completed so far.
func (ph *phase) readHeap(done int) {
	if done >= heapAfter && ph.heapMB <= 0 {
		ph.heapMB = heapLiveMB()
	}
}

// rate is the median over blocks of shots per second.
func (ph *phase) rate() float64 {
	r := make([]float64, len(ph.blocks))
	for i, b := range ph.blocks {
		r[i] = float64(b.shots) / b.dt.Seconds()
	}
	return median(r)
}

// cpuPerShot is the median over blocks of process CPU time per shot, in
// microseconds.
func (ph *phase) cpuPerShot() float64 {
	r := make([]float64, len(ph.blocks))
	for i, b := range ph.blocks {
		r[i] = float64(b.cpu.Nanoseconds()) / 1e3 / float64(b.shots)
	}
	return median(r)
}

// addBlock appends b, folding a final stretch shorter than half a block
// into the previous one.
func (ph *phase) addBlock(b block, last bool) {
	if n := len(ph.blocks); last && n > 0 && b.dt < blockLen/2 {
		ph.blocks[n-1].shots += b.shots
		ph.blocks[n-1].dt += b.dt
		ph.blocks[n-1].cpu += b.cpu
		return
	}
	if b.dt > 0 {
		ph.blocks = append(ph.blocks, b)
	}
}

// fail records a failed op.
func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.problems) < 5 {
		ph.problems = append(ph.problems, err.Error())
	}
}

// op is one timed operation: it returns the shots it decoded and a check
// that verifies its output against the oracle. The check runs after the op,
// outside its timing.
type op func(ctx context.Context, k int) (shots int64, check func() error, err error)

// loop runs ops back to back until their summed wall time reaches the
// phase budget. With a tracer in ctx each op and its check run under one
// "verdict" root span, whose ID every span of the verdict shares.
func (ph *phase) loop(ctx context.Context, run op) error {
	start := time.Now()
	limit := 2 * ph.budget
	if ph.wall {
		limit = ph.budget
	}
	var cur block
	for k := 0; k == 0 || ph.elapsed < ph.budget && time.Since(start) < limit; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		vctx, span := obs.StartSpan(ctx, "verdict")
		u0 := readUsage()
		t0 := time.Now()
		shots, check, err := run(vctx, k)
		dt := time.Since(t0)
		use := readUsage().sub(u0)
		ph.use = ph.use.add(use)
		ph.attempted++
		ph.verdicts = append(ph.verdicts, dt)
		ph.elapsed += dt
		ph.shots += shots
		cur = block{cur.shots + shots, cur.dt + dt, cur.cpu + use.cpu}
		if cur.dt >= blockLen {
			ph.addBlock(cur, false)
			cur = block{}
		}
		if err == nil && check != nil {
			err = check()
		}
		ph.readHeap(k + 1)
		span.End()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			ph.fail(fmt.Errorf("op %d: %w", k, err))
		}
	}
	ph.addBlock(cur, true)
	return nil
}

// instance is a set-up workload, ready to run verdicts.
type instance interface {
	// run runs verdicts until ph.budget is spent. With a tracer in ctx,
	// every verdict also records spans around the layer calls it makes and
	// re-executes its op stage by stage, filling the instance's counters.
	run(ctx context.Context, ph *phase) error
	// layers reports the workload's per-layer metrics from the spans of the
	// traced run, the counters it filled and its traced pass.
	layers(sp spanTable, traced *phase) map[string]float64
	close() error
}

// workload builds an instance. With a tracer in ctx, set-up records spans
// around the layer calls it makes.
type workload func(ctx context.Context, cfg config) (instance, error)

// runEndToEnd sets the workload up cfg.size.setups times (timing each), runs
// the timed phase on the last instance and reports the end-to-end metrics.
func runEndToEnd(ctx context.Context, wl workload, cfg config) (*report, error) {
	var (
		inst   instance
		setups []time.Duration
	)
	for i := 0; i < cfg.size.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if inst, err = wl(ctx, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	ph := &phase{budget: cfg.budget}
	err := inst.run(ctx, ph)
	heap := ph.heapMB
	if heap <= 0 { // a phase shorter than heapAfter verdicts
		heap = heapLiveMB()
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: ph.attempted, failed: ph.failed, problems: ph.problems}
	rep.set("setup_s", median(setups).Seconds(), "s")
	rep.set("shots_per_s", ph.rate(), "shots/s")
	rep.set("verdict_p50_ms", ms(median(ph.verdicts)), "ms")
	rep.set("cpu_us_per_shot", ph.cpuPerShot(), "us")
	rep.set("heap_live_mb", heap, "MB")
	rep.note("setup_s: median of %d set-ups %v", len(setups), setups)
	rep.note("verdicts=%d shots=%d over %.3fs; verdict_p50_ms from %d verdicts; shots_per_s and cpu_us_per_shot are medians of %d blocks",
		len(ph.verdicts), ph.shots, ph.elapsed.Seconds(), len(ph.verdicts), len(ph.blocks))
	rep.note("ops attempted=%d failed=%d", ph.attempted, ph.failed)
	return rep, nil
}

// runTraced is the per-layer run: one set-up with spans, an untraced pass
// and a traced pass of half the budget each. Spans are kept in memory and
// written to spansPath when the run ends.
func runTraced(ctx context.Context, wl workload, cfg config, spansPath string) (*report, error) {
	tr := obs.NewTracer(nil)
	tctx := obs.WithTracer(ctx, tr)
	sctx, span := obs.StartSpan(tctx, "setup")
	inst, err := wl(sctx, cfg)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	untraced := &phase{budget: cfg.budget / 2}
	traced := &phase{budget: cfg.budget / 2, wall: true}
	err = inst.run(ctx, untraced)
	if err == nil {
		err = inst.run(tctx, traced)
	}
	var buf bytes.Buffer
	if err == nil {
		err = tr.WriteJSON(&buf)
	}
	var sp spanTable
	if err == nil {
		sp, err = parseSpans(buf.Bytes())
	}
	var layers map[string]float64
	if err == nil {
		layers = inst.layers(sp, traced)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(spansPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}

	u := untraced.use
	layers["go.allocs_per_shot"] = ratio(float64(u.allocs), float64(untraced.shots))
	layers["go.gc_cpu_share"] = ratio(u.gcCPU, u.busy)
	layers["trace.overhead"] = ratio(median(traced.verdicts).Seconds(), median(untraced.verdicts).Seconds())

	rep := &report{
		attempted: untraced.attempted + traced.attempted,
		failed:    untraced.failed + traced.failed,
		problems:  append(untraced.problems, traced.problems...),
	}
	for _, m := range perLayer {
		rep.set(m.name, layers[m.name], m.unit) // a layer the workload never calls reads 0
	}
	rep.note("untraced pass: %d verdicts, %d shots; traced pass: %d verdicts, %d shots; %d spans written to %s",
		len(untraced.verdicts), untraced.shots, len(traced.verdicts), traced.shots, sp.count, spansPath)
	rep.note("ops attempted=%d failed=%d", rep.attempted, rep.failed)
	return rep, nil
}

// spanTable is the self time and count of every span name in a trace.
type spanTable struct {
	self  map[string]time.Duration // span duration minus its children's
	calls map[string]int
	count int
}

// ns returns the summed self time of the named spans in nanoseconds.
func (t spanTable) ns(names ...string) float64 {
	var s time.Duration
	for _, n := range names {
		s += t.self[n]
	}
	return float64(s.Nanoseconds())
}

// parseSpans reads an obs.Tracer export back and computes self times. A
// layer's self time is its span's duration minus the part its child spans
// cover; children of one span never overlap here because every span in a
// verdict is started and ended on one goroutine.
func parseSpans(data []byte) (spanTable, error) {
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"` // microseconds
			Args  struct {
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return spanTable{}, fmt.Errorf("reading spans back: %w", err)
	}
	children := map[uint64]float64{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.Args.Parent != 0 {
			children[e.Args.Parent] += e.Dur
		}
	}
	t := spanTable{self: map[string]time.Duration{}, calls: map[string]int{}}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		self := e.Dur - children[e.Args.Span]
		t.self[e.Name] += time.Duration(self * float64(time.Microsecond))
		t.calls[e.Name]++
		t.count++
	}
	return t, nil
}

// heapLiveMB is the live heap in MB after two forced collections: one GC
// can leave objects freed only by the next sweep (and sync.Pool victims)
// in the count. Callers read it with the workload still up.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// median is the middle value of v (the mean of the two middle values for
// an even count), 0 for none.
func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b <= 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
