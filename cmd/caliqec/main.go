// Command caliqec drives the CaliQEC pipeline from the shell.
//
// Subcommands:
//
//	caliqec characterize -topology square -d 5       preparation stage
//	caliqec schedule     -topology hex -d 5 -ler 1e-3 compilation stage
//	caliqec run          -d 5 -intervals 4           full in-situ loop
//	caliqec simulate     -d 3,5,7 -p 2e-3 -shots 20000   Monte-Carlo LER sweep (batched)
//	caliqec record       -d 3 -shots 20000 -o t.bin  persist a syndrome trace
//	caliqec replay       -d 3 -check t.bin           decode a trace (optionally verify)
//	caliqec serve        -addr :8790 -d 3,5          live-decode TCP syndrome streams
//	caliqec serve        -fleet -tenant-rate 5e4     multi-tenant shared-pool decode fleet
//	caliqec loadgen      -streams 256 -tenants 4     drive a fleet and check its SLOs
//	caliqec health       -addr 127.0.0.1:8791        poll a replay/serve drift-health endpoint
//	caliqec vet          -d 3                        static IR + deformation-log checks
//	caliqec instructions                             print Table 1
//	caliqec repro        -exp fig10 -o results       regenerate the paper's tables and figures
//
// Exit status: 0 on success or -h, 1 when the command fails, 2 on a bad
// flag or an unknown subcommand.
package main

import (
	"caliqec"
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/rng"
	"caliqec/internal/runtime"
	"caliqec/internal/workload"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// commands is the dispatch table, in the order the usage line lists it.
// Each subcommand parses its own flags, writes its report to stdout and
// its diagnostics to stderr, and stops early when ctx is cancelled.
var commands = []struct {
	name string
	run  func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}{
	{"characterize", runCharacterize},
	{"schedule", runSchedule},
	{"run", runRun},
	{"simulate", runSimulate},
	{"record", runRecord},
	{"replay", runReplay},
	{"serve", runServe},
	{"loadgen", runLoadgen},
	{"health", runHealth},
	{"vet", runVet},
	{"instructions", runInstructions},
	{"repro", runRepro},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first interrupt cancels ctx; a second one kills the process,
	// whether or not the command watches ctx.
	context.AfterFunc(ctx, stop)
	status := dispatch(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(status)
}

// errUsage marks a bad command line the flag package has already reported
// on stderr, together with the command's flags.
var errUsage = errors.New("bad usage")

// dispatch runs the subcommand args[0] names and returns the exit status.
func dispatch(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		switch err := c.run(ctx, args[1:], stdout, stderr); {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		default:
			fmt.Fprintln(stderr, "caliqec:", err)
			return 1
		}
	}
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(stderr, "usage: caliqec <%s> [flags]\n", strings.Join(names, "|"))
	return 2
}

// newFlags returns a subcommand's flag set. A bad flag is reported on
// stderr and returned by parseFlags; it never exits the process.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs and marks any failure other than -h as
// errUsage.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return fmt.Errorf("%w: %v", errUsage, err)
}

// topology is the -topology flag value.
type topology caliqec.Topology

func (t *topology) String() string { return caliqec.Topology(*t).String() }

func (t *topology) Set(s string) error {
	switch s {
	case "square":
		*t = topology(caliqec.Square)
	case "hex", "heavy-hex", "heavyhex":
		*t = topology(caliqec.HeavyHex)
	default:
		return fmt.Errorf("unknown topology %q", s)
	}
	return nil
}

// topoFlag registers -topology (default square) on fs.
func topoFlag(fs *flag.FlagSet) *caliqec.Topology {
	tp := new(caliqec.Topology)
	fs.Var((*topology)(tp), "topology", "lattice `kind`: square | hex (default square)")
	return tp
}

// checkDistance rejects a code distance the lattice constructors refuse.
func checkDistance(d int) error {
	if d < 3 || d%2 == 0 {
		return fmt.Errorf("invalid distance %d (want an odd integer ≥ 3)", d)
	}
	return nil
}

// parseDistances parses a -d value that takes a single distance or a
// comma-separated list for a batched multi-distance sweep.
func parseDistances(s string) ([]int, error) {
	var ds []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil || checkDistance(d) != nil {
			return nil, fmt.Errorf("invalid distance %q (want odd integers ≥ 3, comma-separated)", part)
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("no distances in %q", s)
	}
	return ds, nil
}

// memoryCircuit builds the Z-basis memory-experiment circuit simulate and
// the stream subcommands run: a distance-d patch under uniform noise p over
// rounds QEC rounds (0 = d), returned with the round count it used. With
// isolate set, the central data qubit is isolated first (DataQ_RM) and its
// record returned. Record and replay must build the circuit from the same
// flags: the trace header's circuit fingerprint is checked against it
// before a single frame is decoded.
func memoryCircuit(tp caliqec.Topology, d, rounds int, p float64, isolate bool) (*circuit.Circuit, int, *deform.Record, error) {
	if err := checkDistance(d); err != nil {
		return nil, 0, nil, err
	}
	if rounds == 0 {
		rounds = d
	}
	lat := lattice.New(tp, d, d)
	patch := code.NewPatch(lat)
	var rec *deform.Record
	if isolate {
		df := deform.NewDeformer(patch)
		var err error
		if rec, err = df.IsolateQubit(lat.DataID[[2]int{d / 2, d / 2}], "cli"); err != nil {
			return nil, 0, nil, err
		}
		patch = df.Patch
	}
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	return c, rounds, rec, err
}

func runCharacterize(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("characterize", stderr)
	tp := topoFlag(fs)
	d := fs.Int("d", 5, "code distance")
	seed := fs.Uint64("seed", 1, "random seed")
	limit := fs.Int("limit", 20, "gates to print (0 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	sys, err := caliqec.NewSystem(*tp, *d, caliqec.Options{Seed: *seed})
	if err != nil {
		return err
	}
	ch := sys.Characterize()
	fmt.Fprintf(stdout, "characterized %d gates on %v d=%d (%d physical qubits)\n\n",
		len(ch.Gates), *tp, *d, sys.Device.Lat.NumQubits())
	fmt.Fprintf(stdout, "%-6s %-10s %-12s %-12s %-10s %s\n", "gate", "kind", "p0(est)", "Tdrift(est)", "Tcali", "|nbr|")
	n := 0
	for _, gc := range ch.Gates {
		g := sys.Device.Gate(gc.GateID)
		fmt.Fprintf(stdout, "%-6d %-10v %-12.3g %-12.2f %-10.3f %d\n",
			gc.GateID, g.Kind, gc.Drift.P0, gc.Drift.TDrift, gc.CaliHours, len(gc.Nbr))
		n++
		if *limit > 0 && n >= *limit {
			fmt.Fprintf(stdout, "... (%d more)\n", len(ch.Gates)-n)
			break
		}
	}
	return nil
}

func runSchedule(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("schedule", stderr)
	tp := topoFlag(fs)
	d := fs.Int("d", 5, "code distance")
	seed := fs.Uint64("seed", 1, "random seed")
	ler := fs.Float64("ler", 1e-3, "target logical error rate per cycle")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	sys, err := caliqec.NewSystem(*tp, *d, caliqec.Options{Seed: *seed})
	if err != nil {
		return err
	}
	plan, err := sys.Compile(sys.Characterize(), *ler)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "p_tar = %.4g (LER target %.3g at d=%d)\n", plan.PTar, *ler, *d)
	fmt.Fprintf(stdout, "base interval T_Cali = %.3f h, total frequency = %.3f cal/h\n\n",
		plan.Grouping.TCaliHours, plan.Grouping.TotalFrequency())
	var ks []int
	for k := range plan.Grouping.Groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Fprintf(stdout, "group k=%-3d period %6.2f h: %d gates\n",
			k, float64(k)*plan.Grouping.TCaliHours, len(plan.Grouping.Groups[k]))
	}
	return nil
}

func runRun(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("run", stderr)
	tp := topoFlag(fs)
	d := fs.Int("d", 5, "code distance")
	seed := fs.Uint64("seed", 1, "random seed")
	ler := fs.Float64("ler", 1e-3, "target logical error rate per cycle")
	intervals := fs.Int("intervals", 4, "calibration intervals to execute")
	shots := fs.Int("shots", 0, "when > 0, Monte-Carlo-measure the patch LER after each interval with this shot budget")
	account := fs.Bool("account", true, "run the Table-2 strategy accounting (no-cal / LSC / CaliQEC retry risk) after the intervals")
	s := addSessionFlags(fs, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ctx, err = s.start(ctx, stderr)
	if err != nil {
		return err
	}
	defer s.finish(&err)
	sys, err := caliqec.NewSystem(*tp, *d, caliqec.Options{Seed: *seed})
	if err != nil {
		return err
	}
	plan, err := sys.Compile(sys.Characterize(), *ler)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "in-situ calibration on %v d=%d: T_Cali=%.2fh p_tar=%.4g\n\n",
		*tp, *d, plan.Grouping.TCaliHours, plan.PTar)
	now := 0.0
	for n := 1; n <= *intervals; n++ {
		rep, err := sys.RunIntervalContext(ctx, plan, n, now)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "interval %d (t=%6.2fh): %3d due, %3d calibrated in %d batches (Δd≤%d, enlarged=%v, %.2fh)\n",
			n, now, len(rep.DueGates), rep.Calibrated, rep.Batches, rep.MaxDeltaD, rep.Enlarged, rep.ElapsedHours)
		if err := sys.Patch().Validate(); err != nil {
			return fmt.Errorf("patch invalid after interval %d: %w", n, err)
		}
		if *shots > 0 {
			res, err := sys.MeasureLERContext(ctx, now, *d, *shots)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  patch LER at t=%.2fh: %v (per-round %.4g)\n", now, res, res.PerRoundLER)
		}
		now += plan.Grouping.TCaliHours
	}
	fmt.Fprintf(stdout, "\npatch valid, distance (%d, %d), %d checks\n",
		sys.Patch().Distance(lattice.BasisX), sys.Patch().Distance(lattice.BasisZ), len(sys.Patch().Checks))
	if *account {
		fmt.Fprintf(stdout, "\nstrategy accounting (Hubbard-10-10, d=25, retry budget 1%%):\n")
		cfg := runtime.Config{Prog: workload.Hubbard(10, 10), D: 25, RetryTarget: 0.01, Seed: *seed}
		for _, strat := range []runtime.Strategy{runtime.StrategyNoCal, runtime.StrategyLSC, runtime.StrategyCaliQEC} {
			res, err := runtime.Run(ctx, cfg, strat)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %v\n", res)
		}
	}
	return nil
}

func runSimulate(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("simulate", stderr)
	tp := topoFlag(fs)
	dList := fs.String("d", "3", "code distance, or comma-separated distances (e.g. 3,5,7) for one batched sweep")
	p := fs.Float64("p", 1e-3, "physical error rate")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	shots := fs.Int("shots", 20000, "Monte-Carlo shot budget per distance")
	seed := fs.Uint64("seed", 1, "random seed")
	isolate := fs.Bool("isolate", false, "isolate the central data qubit first (DataQ_RM)")
	targetFails := fs.Int("target-failures", 0, "stop early once this many logical failures are seen (0 = run the full budget)")
	progress := fs.Bool("progress", false, "print a live shots/failures status line to stderr")
	s := addSessionFlags(fs, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ds, err := parseDistances(*dList)
	if err != nil {
		return err
	}
	ctx, err = s.start(ctx, stderr)
	if err != nil {
		return err
	}
	defer s.finish(&err)
	specs := make([]mc.Spec, len(ds))
	roundsOf := make([]int, len(ds))
	status := statusLine(stderr)
	for i, d := range ds {
		c, r, iso, err := memoryCircuit(*tp, d, *rounds, *p, *isolate)
		if err != nil {
			return err
		}
		if iso != nil {
			fmt.Fprintf(stdout, "d=%d: isolated qubit %d: %v\n", d, iso.Target, iso)
		}
		roundsOf[i] = r
		// Each distance seeds its own generator (seed+i, so a single -d run
		// reproduces the historical rng.New(seed) stream exactly); batching
		// the sweep cannot perturb any distance's result.
		specs[i] = mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: *shots, Rounds: r, RNG: rng.New(*seed + uint64(i)),
			TargetFailures: *targetFails,
		}
		if *progress {
			label := fmt.Sprintf("d=%d", d)
			specs[i].Progress = func(done, failures int) { status(label, done, *shots, failures) }
		}
	}
	results, err := mc.EvaluateBatch(ctx, specs)
	if *progress {
		fmt.Fprintln(stderr)
	}
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Fprintf(stdout, "%v d=%d p=%.3g rounds=%d: %v (per-round %.4g)\n", *tp, ds[i], *p, roundsOf[i], res.Result, res.PerRoundLER)
		if res.EarlyStopped {
			fmt.Fprintf(stdout, "early stop: %d of %d budgeted shots spent\n", res.Shots, res.Requested)
		}
	}
	return nil
}

func runInstructions(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if err := parseFlags(newFlags("instructions", stderr), args); err != nil {
		return err
	}
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		fmt.Fprintf(stdout, "%-10s:", kind)
		for _, op := range deform.InstructionSet(kind) {
			fmt.Fprintf(stdout, " %s", op)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
