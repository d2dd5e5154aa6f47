// Command perfbench is the repository benchmark. It runs one named workload
// in-process against the public APIs of the caliqec packages, checks the
// output of every operation it times, and prints the end-to-end metrics —
// or, with --trace 1, the per-layer metrics of a separate traced run — as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {"setup_s": {"value": 2.1, "unit": "s"}, ...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload ler-sweep --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart is read as early as the process allows; the set-up of the
// first repetition is timed from here.
var processStart = time.Now()

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the command line, runs the workload and prints the report.
// It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadOrder, ", "))
		return 2
	}
	cfg := config{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		size:    fullSize,
	}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(ctx, wl, cfg, spansPath)
	} else {
		rep, err = runEndToEnd(ctx, wl, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.print(stdout, *name, cfg, *trace)
	return 0
}

// spansPath is where a traced run writes its spans (Chrome trace-event
// JSON), relative to the working directory.
var spansPath = filepath.Join(".bench_build", "perfbench-spans.json")

// workloads maps each workload name to its set-up; workloadOrder lists
// them as BENCHMARK.json does.
var (
	workloads = map[string]workload{
		"ler-sweep":   setupSweep,
		"calib-cycle": setupCalib,
		"replay":      setupReplay,
		"serve-fleet": setupServe,
	}
	workloadOrder = []string{"ler-sweep", "calib-cycle", "replay", "serve-fleet"}
)

// size fixes the amount of work behind each op.
type size struct {
	setups         int   // set-up repetitions behind setup_s
	sweepShots     int   // shots per ler-sweep spec
	sweepDistances []int // ler-sweep code distances (rounds = d)
	sweepKeys      int   // distinct seed sets ler-sweep verdicts cycle through
	calibShots     int   // shots per calibration evaluation
	streamFrames   int   // frames per recorded stream
}

var fullSize = size{
	setups:         3,
	sweepShots:     4096,
	sweepDistances: []int{3, 5, 7},
	sweepKeys:      4,
	calibShots:     4096,
	streamFrames:   16384,
}

// config is one run's fixed parameters.
type config struct {
	seed    uint64
	budget  time.Duration // length of the timed phase
	workers int           // decode concurrency: nproc
	size    size
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run prints.
type report struct {
	attempted, failed int
	problems          []string // descriptions of failed ops (first few)
	metrics           map[string]metric
	notes             []string // sample counts and run facts for the header lines
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the environment stamp and notes as comment lines, then the
// result object as the last line.
func (r *report) print(w io.Writer, name string, cfg config, trace int) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n",
		name, cfg.seed, cfg.budget.Seconds(), trace)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d go=%s cpu=%q workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), cfg.workers)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
	line, _ := json.Marshal(out) // plain structs and floats: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// cpuModel names the processor for the environment stamp; "unknown" where
// the kernel does not say.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errOracle marks an op whose output disagreed with its oracle.
var errOracle = errors.New("output differs from oracle")
