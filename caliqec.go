// Package caliqec is a Go implementation of CaliQEC (Fang et al., ISCA
// 2025): in-situ qubit calibration for surface-code quantum error
// correction via code deformation.
//
// The package is a facade over the internal substrates; it exposes the
// paper's three-stage pipeline end to end:
//
//  1. Preparation — synthesize (or model) a device over a square or
//     heavy-hex lattice and characterize every gate's drift constant,
//     calibration duration and crosstalk neighbourhood (NewSystem,
//     System.Characterize).
//  2. Compilation — derive the target physical error rate from the code
//     distance and logical-error budget, group gates into calibration
//     intervals (Algorithm 1), and build crosstalk-aware intra-group
//     schedules under a Δd budget (System.Compile).
//  3. Runtime — execute calibration intervals concurrently with
//     computation: isolate each due gate's region with the deformation
//     instruction set, enlarge the patch if distance was lost, calibrate,
//     and reintegrate (System.RunInterval).
//
// Monte-Carlo machinery (circuit generation, Pauli-frame sampling,
// detector error models, union-find decoding) is available for measuring
// actual logical error rates of pristine and deformed patches
// (System.MeasureLER), and internal/exp regenerates every table and figure
// of the paper (`caliqec repro`).
package caliqec

import (
	"caliqec/internal/charac"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/device"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/noise"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"caliqec/internal/sched"
	"context"
	"fmt"
	"sort"
)

// Topology selects the hardware lattice family.
type Topology = lattice.Kind

// Supported topologies (paper Table 1).
const (
	Square   = lattice.Square   // Rigetti-class square lattice
	HeavyHex = lattice.HeavyHex // IBM-class heavy-hexagon lattice
)

// Options configures NewSystem. The device follows the paper's
// current-hardware drift model (log-normal, mean 14.08 h) and calibration
// runs under the paper's Δd budget, sched.DefaultDeltaD.
type Options struct {
	// Seed makes the whole pipeline deterministic.
	Seed uint64
}

// System is one logical patch plus its underlying device and the live
// deformation state.
type System struct {
	Topology Topology
	Distance int
	Device   *device.Device
	Deformer *deform.Deformer
	Options  Options

	rng *rng.RNG
}

// Patch returns the current (possibly deformed) code patch.
func (s *System) Patch() *code.Patch { return s.Deformer.Patch }

// NewSystem builds a distance-d patch on the chosen topology together with
// a synthetic device over its physical qubits.
func NewSystem(tp Topology, d int, opt Options) (*System, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("caliqec: distance must be odd and ≥ 3, got %d", d)
	}
	r := rng.New(opt.Seed ^ 0xca11bec)
	lat := lattice.New(tp, d, d)
	dev := device.New(lat, r.Split())
	patch := code.NewPatch(lat)
	return &System{
		Topology: tp,
		Distance: d,
		Device:   dev,
		Deformer: deform.NewDeformer(patch),
		Options:  opt,
		rng:      r,
	}, nil
}

// Characterize runs the preparation stage: simulated interleaved RB per
// gate, drift-law fitting, crosstalk probing and calibration timing.
func (s *System) Characterize() *charac.Characterization {
	return charac.Characterize(s.Device, s.rng.Split())
}

// Plan is the compile-time output: the calibration grouping and the
// per-interval schedules.
type Plan struct {
	PTar     float64
	Grouping *sched.Grouping
	// Profiles indexes the scheduler's gate view by gate ID.
	Profiles map[int]sched.GateProfile
}

// Compile runs the compilation stage against a characterization: it
// derives p_tar from the logical-error budget via Eq. (4), then assigns
// every gate to a calibration group (Algorithm 1).
func (s *System) Compile(ch *charac.Characterization, lerTarget float64) (*Plan, error) {
	pTar, err := sched.PTarget(s.Distance, lerTarget, noise.Alpha, noise.Threshold)
	if err != nil {
		return nil, err
	}
	if pTar <= noise.InitialErrorRate*1.05 {
		return nil, fmt.Errorf("caliqec: distance %d cannot hold LER %.3g — p_tar %.3g leaves no headroom above the calibrated rate %.3g; increase the distance or relax the target",
			s.Distance, lerTarget, pTar, noise.InitialErrorRate)
	}
	var profiles []sched.GateProfile
	byID := map[int]sched.GateProfile{}
	for _, gc := range ch.Gates {
		g := s.Device.Gate(gc.GateID)
		p := sched.GateProfile{
			GateID:    gc.GateID,
			Drift:     gc.Drift,
			CaliHours: gc.CaliHours,
			Nbr:       gc.Nbr,
			Qubits:    g.Qubits,
		}
		byID[gc.GateID] = p
		// Gates too slow to ever need calibration within a long horizon
		// are excluded from grouping (they still appear in Profiles).
		if d := p.DeadlineHours(pTar); d < 30*24 {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("caliqec: no gate needs calibration within 30 days at p_tar=%.3g", pTar)
	}
	gr, err := sched.AssignGroups(profiles, pTar)
	if err != nil {
		return nil, err
	}
	return &Plan{PTar: pTar, Grouping: gr, Profiles: byID}, nil
}

// IntervalReport describes what one runtime calibration interval did.
type IntervalReport struct {
	Interval     int
	DueGates     []int
	Batches      int
	Calibrated   int
	Enlarged     bool
	MaxDeltaD    int
	ElapsedHours float64
}

// RunInterval executes the n-th calibration interval (1-indexed) against
// the live patch: the due gates are clustered and batched under the Δd
// budget sched.DefaultDeltaD; each batch's regions are isolated via the
// instruction set, the gates calibrated on the device, and the regions
// reintegrated. If a batch costs code distance, the patch is enlarged
// (PatchQ_AD) for its duration and shrunk back afterwards. It is
// RunIntervalContext with a background context.
func (s *System) RunInterval(plan *Plan, n int, nowHours float64) (*IntervalReport, error) {
	return s.RunIntervalContext(context.Background(), plan, n, nowHours)
}

// RunIntervalContext is RunInterval with a caller-supplied context: the
// interval aborts between batches when the context is cancelled, and when
// the context carries an obs tracer the interval records one
// "caliqec.interval" span with a nested "deform.session" span per batch
// (attributed with the batch's instruction kinds and distance loss), so a
// whole calibration run is visible as a timeline in chrome://tracing.
func (s *System) RunIntervalContext(ctx context.Context, plan *Plan, n int, nowHours float64) (*IntervalReport, error) {
	ctx, span := obs.StartSpan(ctx, "caliqec.interval")
	defer span.End()
	span.SetAttr("interval", n)
	span.SetAttr("delta_d", sched.DefaultDeltaD)
	rep := &IntervalReport{Interval: n}
	due := plan.Grouping.DueGates(n)
	rep.DueGates = due
	if len(due) == 0 {
		return rep, nil
	}
	var tasks []sched.Task
	for _, id := range due {
		p := plan.Profiles[id]
		tasks = append(tasks, sched.Task{GateID: id, Region: p.Nbr, CaliHours: p.CaliHours})
	}
	tasks = sched.ClusterDependent(tasks)
	lossEst := sched.DiameterLoss{Coord: func(q int) (int, int) {
		qb := s.Deformer.Patch.Lat.Qubit(q)
		return qb.Row / 4, qb.Col / 4
	}}
	schedule, err := sched.BuildSchedule(tasks, sched.StrategyAdaptive, lossEst, sched.DefaultDeltaD)
	if err != nil {
		return nil, err
	}
	rep.Batches = len(schedule.Batches)
	rep.MaxDeltaD = schedule.MaxLoss()
	for bi, batch := range schedule.Batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tag := fmt.Sprintf("int%d-batch%d", n, bi)
		// Each batch is one isolate→calibrate→reintegrate episode,
		// observed as a deform.session span that ends on every path.
		err := func(batch sched.Batch) error {
			_, sess := s.Deformer.BeginSession(ctx, tag)
			defer sess.End()
			// Collect the batch's isolation region as coordinates on the
			// device lattice (coordinates stay valid across patch rebuilds).
			coordSet := map[[2]int]bool{}
			for _, task := range batch.Tasks {
				for _, q := range task.Region {
					qb := s.Device.Lat.Qubit(q)
					coordSet[[2]int{qb.Row, qb.Col}] = true
				}
			}
			// Dynamic code enlargement FIRST (paper §3: "dynamic code
			// enlargement, which slightly expands affected patches to maintain
			// QEC capabilities during the calibration process"): grow by the
			// batch's estimated distance loss so isolation never drops the
			// patch below its original protection level.
			grow := (batch.DistanceLoss + 1) / 2
			for g := 0; g < grow; g++ {
				if err := s.Deformer.Enlarge(true); err != nil {
					return err
				}
				if err := s.Deformer.Enlarge(false); err != nil {
					return err
				}
				rep.Enlarged = true
			}
			// Resolve the region on the (possibly larger) current lattice and
			// isolate it with the instruction set.
			var qubits []int
			for rc := range coordSet {
				q, err := s.Deformer.QubitAt(rc[0], rc[1])
				if err != nil {
					return err
				}
				qubits = append(qubits, q)
			}
			sort.Ints(qubits)
			if _, err := s.Deformer.IsolateRegion(qubits, tag); err != nil {
				return fmt.Errorf("caliqec: isolating batch %d: %w", bi, err)
			}
			// Calibrate the batch's gates on the device while computation
			// continues on the deformed patch.
			for _, task := range batch.Tasks {
				for _, id := range task.MemberGates() {
					s.Device.Calibrate(id, nowHours+rep.ElapsedHours)
					rep.Calibrated++
				}
			}
			rep.ElapsedHours += batch.Hours
			// Reintegrate the region and shrink the patch back.
			if err := s.Deformer.Reintegrate(tag); err != nil {
				return fmt.Errorf("caliqec: reintegrating batch %d: %w", bi, err)
			}
			for g := 0; g < grow; g++ {
				if err := s.Deformer.Shrink(true); err != nil {
					return err
				}
				if err := s.Deformer.Shrink(false); err != nil {
					return err
				}
			}
			return nil
		}(batch)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// MeasureLER Monte-Carlo-samples the current patch's memory experiment at
// the device's current noise (time nowHours) and decodes with the
// union-find decoder, returning the per-round logical error rate. It is
// MeasureLERContext with a background context.
func (s *System) MeasureLER(nowHours float64, rounds, shots int) (decoder.Result, error) {
	return s.MeasureLERContext(context.Background(), nowHours, rounds, shots)
}

// MeasureLERContext is MeasureLER with a caller-supplied context: the
// measurement aborts promptly (returning ctx.Err()) if the context is
// cancelled or its deadline passes mid-run. Evaluation goes through the
// shared internal/mc engine, so repeated measurements of structurally
// identical circuits at identical noise reuse the cached detector error
// model and decoding graph.
func (s *System) MeasureLERContext(ctx context.Context, nowHours float64, rounds, shots int) (decoder.Result, error) {
	nm := s.Device.NoiseAt(nowHours)
	c, err := s.Deformer.Patch.MemoryCircuit(code.MemoryOptions{
		Rounds: rounds, Basis: lattice.BasisZ, Noise: nm,
	})
	if err != nil {
		return decoder.Result{}, err
	}
	res, err := mc.Evaluate(ctx, mc.Spec{
		Circuit: c, Decoder: decoder.KindUnionFind,
		Shots: shots, Rounds: rounds, RNG: s.rng.Split(),
	})
	if err != nil {
		return decoder.Result{}, err
	}
	return res.Result, nil
}

// MeasureLERSweep Monte-Carlo-samples the current patch at several round
// counts in one batched evaluation; see MeasureLERSweepContext.
func (s *System) MeasureLERSweep(nowHours float64, rounds []int, shots int) ([]decoder.Result, error) {
	return s.MeasureLERSweepContext(context.Background(), nowHours, rounds, shots)
}

// MeasureLERSweepContext measures the current patch's per-round logical
// error rate at each entry of rounds, evaluating all memory experiments as
// one batch over the engine's shared chunk scheduler so the sweep saturates
// the worker pool even when individual configurations are small. Each
// configuration draws its generator from the system RNG in rounds order —
// exactly as the equivalent sequence of MeasureLERContext calls would — so
// results match one-at-a-time measurement bit for bit.
func (s *System) MeasureLERSweepContext(ctx context.Context, nowHours float64, rounds []int, shots int) ([]decoder.Result, error) {
	nm := s.Device.NoiseAt(nowHours)
	specs := make([]mc.Spec, 0, len(rounds))
	for _, r := range rounds {
		c, err := s.Deformer.Patch.MemoryCircuit(code.MemoryOptions{
			Rounds: r, Basis: lattice.BasisZ, Noise: nm,
		})
		if err != nil {
			return nil, err
		}
		specs = append(specs, mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: shots, Rounds: r, RNG: s.rng.Split(),
		})
	}
	batch, err := mc.EvaluateBatch(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make([]decoder.Result, len(batch))
	for i, res := range batch {
		out[i] = res.Result
	}
	return out, nil
}
