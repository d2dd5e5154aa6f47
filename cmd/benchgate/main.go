// Command benchgate runs the gated benchmarks and checks their budgets.
// From the module root, as CI's bench job does:
//
//	go run ./cmd/benchgate
//
// It builds the root package's test binary once, runs it five times at 20
// iterations per benchmark, and checks the gate table (suites) on the
// median of each per-run value, allocs/op on the minimum. It reports every
// suite before it sets the exit status, and rewrites only the BENCH files
// whose gates pass. It takes no flags and reads no environment variables.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

const (
	numRuns   = 5
	benchtime = "20x"
	// gated selects the fifteen gated benchmarks, sub-benchmarks included.
	gated = "^(BenchmarkEngineCachedSweep|BenchmarkObsOverhead|BenchmarkEngineBatchSweep|BenchmarkStreamReplay|BenchmarkFleetServe|BenchmarkLintRepo)$"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/benchgate (no arguments)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ok, err := benchAndGate(ctx, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// benchAndGate builds the test binary, runs it in the working directory,
// echoes each run's output to w and gates the parsed runs. It reports
// whether every suite passed; an interrupt kills the running benchmark and
// returns with nothing written.
func benchAndGate(ctx context.Context, w io.Writer) (bool, error) {
	tmp, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "caliqec.test")
	build := exec.CommandContext(ctx, "go", "test", "-c", "-o", bin, ".")
	build.Stdout, build.Stderr = w, os.Stderr
	if err := build.Run(); err != nil {
		return false, fmt.Errorf("building the test binary: %w", err)
	}
	var all []run
	for i := 1; i <= numRuns; i++ {
		fmt.Fprintf(w, "--- run %d of %d\n", i, numRuns)
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", gated,
			"-test.benchtime", benchtime, "-test.benchmem", "-test.timeout", "10m")
		cmd.Stdout, cmd.Stderr = io.MultiWriter(w, &out), os.Stderr
		err := cmd.Run()
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		if err != nil {
			fmt.Fprintf(w, "run %d: %v (its missing results fail their suites)\n", i, err)
		}
		all = append(all, parse(out.String()))
	}
	return check(w, ".", all, runtime.NumCPU())
}

// A run maps each benchmark of one test-binary run, named without its
// "Benchmark" prefix and GOMAXPROCS suffix, to the values its result line
// reports by unit ("ns/op", "allocs/op", "round_p99_ns", ...).
type run map[string]map[string]float64

var procs = regexp.MustCompile(`-\d+$`)

// parse reads one run's output. A result line is a name, an iteration
// count and value–unit pairs; every other line is skipped, and a value that
// does not parse is left out, so a gate that reads it fails as missing.
func parse(out string) run {
	r := run{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		units := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				units[f[i+1]] = v
			}
		}
		r[strings.TrimPrefix(procs.ReplaceAllString(f[0], ""), "Benchmark")] = units
	}
	return r
}

// A measure reads one value from one run: NaN when the run lacks a result
// the value needs.
type measure func(run) float64

func result(name, unit string) measure {
	return func(r run) float64 {
		if v, ok := r[name][unit]; ok {
			return v
		}
		return math.NaN()
	}
}

func ns(name string) measure { return result(name, "ns/op") }

func ratio(num, den measure) measure { return func(r run) float64 { return num(r) / den(r) } }

func constant(c float64) measure { return func(run) float64 { return c } }

// reduce evaluates m on every run and returns the median, or the minimum
// when least is set; NaN when any run lacks a result m reads. A ratio is
// taken within each run, whose two sides ran back to back, then reduced.
func reduce(runs []run, m measure, least bool) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		if xs[i] = m(r); math.IsNaN(xs[i]) {
			return xs[i]
		}
	}
	slices.Sort(xs)
	if least {
		return xs[0]
	}
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// A gate bounds one reduced value by a limit, reduced the same way.
type gate struct {
	key      string // JSON key of the value
	limitKey string // JSON key of the limit; "" where the BENCH file records none
	value    measure
	limit    measure
	atMost   bool // the value may not exceed the limit; otherwise it may not fall below
	allocs   bool // reduce by the minimum across runs, not the median
	why      string
}

// A suite is one BENCH file: the benchmarks it tabulates by unit, and its
// gates. A benchmark missing from any run fails its suite.
type suite struct {
	file    string
	trim    string // prefix dropped from benchmark names in the tables
	benches []string
	units   []string
	gates   []gate
}

var tableKey = map[string]string{"ns/op": "ns_per_op", "frames/s": "frames_per_sec", "allocs/op": "allocs_per_op"}

// suites is the gate table. Where a limit depends on cores, the second
// value applies on a single-core runner, where a parallel path has no
// headroom by construction.
func suites(cores int) []suite {
	byCores := func(multi, single float64) measure {
		if cores < 2 {
			multi = single
		}
		return constant(multi)
	}
	allocs := func(name string) measure { return result(name, "allocs/op") }
	return []suite{{
		file:    "BENCH_mc.json",
		benches: []string{"EngineCachedSweep/cold", "EngineCachedSweep/warm", "EngineBatchSweep/sequential-cold", "EngineBatchSweep/batch-cold", "EngineBatchSweep/sequential-warm", "EngineBatchSweep/batch-warm", "ObsOverhead/discard", "ObsOverhead/recording"},
		units:   []string{"ns/op", "allocs/op"},
		gates: []gate{
			{key: "obs_overhead_ratio", value: ratio(ns("ObsOverhead/recording"), ns("ObsOverhead/discard")), limit: constant(1.05), atMost: true,
				why: "recording metrics may cost the warm cached sweep at most 5% over discarding them"},
			{key: "cold_warm_ratio", limitKey: "cold_warm_cap", value: ratio(ns("EngineCachedSweep/cold"), ns("EngineCachedSweep/warm")), limit: constant(8), atMost: true,
				why: "DEM extraction and graph build may cost a fresh engine at most 8x the cached sweep; it read 94-176 when extraction re-propagated every fault"},
			{key: "batch_speedup_cold", value: ratio(ns("EngineBatchSweep/sequential-cold"), ns("EngineBatchSweep/batch-cold")), limit: byCores(1.0, 0.85),
				why: "EvaluateBatch may not lose to the sequential loop on the 8-patch cold sweep; on one core both do the same work, and 0.85 allows scheduler noise"},
			{key: "batch_warm_allocs", limitKey: "sequential_warm_allocs", value: allocs("EngineBatchSweep/batch-warm"), limit: allocs("EngineBatchSweep/sequential-warm"), atMost: true, allocs: true,
				why: "the batch scheduler may not allocate more per warm sweep than the sequential loop"},
			{key: "lane_speedup_warm", limitKey: "lane_speedup_floor", value: ratio(constant(2237118), ns("EngineCachedSweep/warm")), limit: byCores(1.8, 1.4),
				why: "the 256-shot sampler and incremental union-find reset keep the warm sweep this much faster than the pre-widening 2,237,118 ns/op; one core sees only the ~2.1x algorithmic part"},
		},
	}, {
		file:    "BENCH_stream.json",
		trim:    "StreamReplay/",
		benches: []string{"StreamReplay/read", "StreamReplay/serial", "StreamReplay/pipeline", "StreamReplay/windowed", "StreamReplay/estimator", "FleetServe"},
		units:   []string{"ns/op", "frames/s", "allocs/op"},
		gates: []gate{
			{key: "pipeline_speedup", value: ratio(ns("StreamReplay/serial"), ns("StreamReplay/pipeline")), limit: byCores(0.95, 0.6),
				why: "the Replay worker pipeline may not fall below single-threaded read+decode; on one core each frame's hand-off through the pool queue is pure overhead"},
			{key: "round_p99_ns", limitKey: "round_p99_budget_ns", value: result("StreamReplay/windowed", "round_p99_ns"), limit: constant(100000), atMost: true,
				why: "the sliding-window decoder's per-round p99 ingest latency is the streaming path's bounded-latency budget"},
			{key: "fleet_p99_ns", limitKey: "fleet_p99_budget_ns", value: result("FleetServe", "fleet_p99_ns"), limit: constant(200000), atMost: true,
				why: "the fleet's per-frame decode p99 (span means, 256 streams, one pool) catches frames parked behind lock convoys or unfair queues"},
			{key: "estimator_overhead_ratio", limitKey: "estimator_overhead_cap", value: ratio(ns("StreamReplay/estimator"), ns("StreamReplay/pipeline")), limit: byCores(1.05, 1.15), atMost: true,
				why: "the drift estimator may cost replay throughput at most 5%; 15% on one core, where the reader and the decode workers take turns"},
		},
	}, {
		file: "BENCH_lint.json",
		gates: []gate{
			{key: "lint_ns_per_op", limitKey: "lint_budget_ns", value: ns("LintRepo"), limit: constant(1e10), atMost: true,
				why: "one caliqec-lint pass over the module; catches an accidentally quadratic rule before the lint job becomes the pipeline's long pole"},
		},
	}}
}

// check gates every suite on runs, prints each suite's document and
// failures to w, and writes each passing suite's BENCH file into dir. It
// reports whether every suite passed.
func check(w io.Writer, dir string, runs []run, cores int) (bool, error) {
	all := true
	for _, s := range suites(cores) {
		doc, fails := s.judge(runs, cores)
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		body = append(body, '\n')
		fmt.Fprintf(w, "%s\n%s", s.file, body)
		for _, f := range fails {
			fmt.Fprintf(w, "FAIL %s: %s\n", s.file, f)
		}
		if len(fails) > 0 {
			fmt.Fprintf(w, "%s: %d check(s) failed; the committed file is left as it was\n", s.file, len(fails))
			all = false
			continue
		}
		path := filepath.Join(dir, s.file)
		if err := os.WriteFile(path+".tmp", body, 0o644); err != nil {
			return false, err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s: pass, written\n", s.file)
	}
	return all, nil
}

// judge builds the suite's BENCH document from runs and lists every
// missing result and failed gate.
func (s suite) judge(runs []run, cores int) (map[string]any, []string) {
	doc := map[string]any{"benchtime": benchtime, "cores": cores, "runs": len(runs)}
	var fails []string
	for _, unit := range s.units {
		table := map[string]float64{}
		for _, b := range s.benches {
			v := reduce(runs, result(b, unit), unit == "allocs/op")
			if math.IsNaN(v) {
				fails = append(fails, fmt.Sprintf("%s %s missing from a run", b, unit))
				continue
			}
			table[strings.TrimPrefix(b, s.trim)] = v
		}
		doc[tableKey[unit]] = table
	}
	for _, g := range s.gates {
		v, lim := reduce(runs, g.value, g.allocs), reduce(runs, g.limit, g.allocs)
		if math.IsNaN(v) || math.IsNaN(lim) {
			fails = append(fails, g.key+": a result it reads is missing from a run")
			continue
		}
		doc[g.key] = round4(v)
		if g.limitKey != "" {
			doc[g.limitKey] = lim
		}
		if g.atMost && v > lim {
			fails = append(fails, fmt.Sprintf("%s %s above its limit %s on %d core(s): %s", g.key, num(v), num(lim), cores, g.why))
		} else if !g.atMost && v < lim {
			fails = append(fails, fmt.Sprintf("%s %s below its limit %s on %d core(s): %s", g.key, num(v), num(lim), cores, g.why))
		}
	}
	return doc, fails
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func num(x float64) string { return strconv.FormatFloat(round4(x), 'f', -1, 64) }
