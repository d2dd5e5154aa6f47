package exp

import (
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/ler"
	"caliqec/internal/mc"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"caliqec/internal/runtime"
	"caliqec/internal/workload"
	"context"
	"fmt"
	"strings"
)

// Table1Instructions renders Table 1: the CaliQEC instruction sets per code
// topology, straight from the deform package's registry.
func Table1Instructions(_ context.Context, _ uint64) (*Report, error) {
	rep := &Report{
		ID:     "table1",
		Title:  "CaliQEC instruction sets for square and heavy-hexagon surface codes",
		Header: []string{"code topology", "instructions"},
	}
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		ops := deform.InstructionSet(kind)
		names := make([]string, len(ops))
		for i, o := range ops {
			names[i] = string(o)
		}
		rep.AddRow(kind.String(), strings.Join(names, ", "))
		rep.SetValue(kind.String()+"_count", float64(len(ops)))
	}
	rep.AddNote("paper Table 1: square has 4 instructions, heavy-hexagon 6")
	return rep, nil
}

// table2Row is one benchmark × distance configuration of Table 2.
type table2Row struct {
	prog   workload.Program
	d      int
	model  noise.Model
	target float64
}

func table2Rows() []table2Row {
	cur, fut := noise.CurrentModel(), noise.FutureModel()
	return []table2Row{
		{workload.Hubbard(10, 10), 25, cur, 0.01},
		{workload.Hubbard(10, 10), 27, cur, 0.001},
		{workload.Hubbard(20, 20), 29, cur, 0.01},
		{workload.Hubbard(20, 20), 31, cur, 0.001},
		{workload.Jellium(250), 39, cur, 0.01},
		{workload.Jellium(250), 41, cur, 0.001},
		{workload.Jellium(1024), 45, fut, 0.01},
		{workload.Jellium(1024), 47, fut, 0.001},
		{workload.Grover(100), 41, fut, 0.01},
		{workload.Grover(100), 43, fut, 0.001},
		{workload.Hubbard(10, 10), 25, fut, 0.01},
		{workload.Hubbard(10, 10), 27, fut, 0.001},
	}
}

// Table2 regenerates the paper's Table 2: every benchmark × distance row
// under the three strategies, reporting physical qubits, execution time and
// retry risk.
func Table2(ctx context.Context, seed uint64) (*Report, error) {
	rep := &Report{
		ID:    "table2",
		Title: "Large-scale program comparison (No-Calibration / LSC / CaliQEC)",
		Header: []string{"model", "benchmark", "d",
			"qubits(NC)", "time(NC)", "risk(NC)",
			"qubits(LSC)", "time(LSC)", "risk(LSC)",
			"qubits(CQ)", "time(CQ)", "risk(CQ)"},
	}
	var qLSC, qCQ, tLSC, riskRatio []float64
	for i, row := range table2Rows() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := runtime.Config{
			Prog:        row.prog,
			D:           row.d,
			Model:       row.model,
			RetryTarget: row.target,
			Seed:        seed + uint64(i)*101,
		}
		var res [3]*runtime.Result
		for si, strat := range []runtime.Strategy{runtime.StrategyNoCal, runtime.StrategyLSC, runtime.StrategyCaliQEC} {
			r, err := runtime.Run(ctx, cfg, strat)
			if err != nil {
				return nil, fmt.Errorf("table2 %s d=%d %v: %w", row.prog.Name, row.d, strat, err)
			}
			res[si] = r
		}
		nc, lsc, cq := res[0], res[1], res[2]
		rep.AddRow(row.model.Name, row.prog.Name, fmt.Sprintf("%d", row.d),
			fmt.Sprintf("%.3g", nc.PhysicalQubits), fmt.Sprintf("%.4g", nc.ExecHours), fmtRisk(nc.RetryRisk),
			fmt.Sprintf("%.3g", lsc.PhysicalQubits), fmt.Sprintf("%.4g", lsc.ExecHours), fmtRisk(lsc.RetryRisk),
			fmt.Sprintf("%.3g", cq.PhysicalQubits), fmt.Sprintf("%.4g", cq.ExecHours), fmtRisk(cq.RetryRisk),
		)
		qLSC = append(qLSC, lsc.PhysicalQubits/nc.PhysicalQubits-1)
		qCQ = append(qCQ, cq.PhysicalQubits/nc.PhysicalQubits-1)
		tLSC = append(tLSC, lsc.ExecHours/nc.ExecHours-1)
		if cq.RetryRisk > 0 {
			riskRatio = append(riskRatio, 1-cq.RetryRisk/lsc.RetryRisk)
		}
	}
	rep.SetValue("lsc_qubit_overhead_mean", rng.Mean(qLSC))
	rep.SetValue("caliqec_qubit_overhead_mean", rng.Mean(qCQ))
	rep.SetValue("lsc_time_overhead_mean", rng.Mean(tLSC))
	rep.SetValue("caliqec_risk_reduction_vs_lsc", rng.Mean(riskRatio))
	rep.AddNote("paper §8.1: LSC +363%% qubits, ~+20%% time; CaliQEC +24%% qubits, no time overhead, −79.4%% retry risk vs LSC")
	rep.AddNote("no-calibration rows approach 100%% retry risk in both the paper and this reproduction")
	return rep, nil
}

func fmtRisk(r float64) string {
	if r > 0.99 {
		return "~100%"
	}
	return fmt.Sprintf("%.3g%%", 100*r)
}

// FitLERModel anchors the analytic Eq. (4) layer to this repository's own
// Monte-Carlo substrate: it measures per-round LERs at d=3 and d=5 across
// physical rates, fits (α, p_th), and compares with the paper's constants.
func FitLERModel(ctx context.Context, seed uint64) (*Report, error) {
	rep := &Report{
		ID:     "fit",
		Title:  "Calibrating LER(d,p) = α(p/p_th)^((d+1)/2) against Monte Carlo",
		Header: []string{"d", "p", "shots", "LER/round"},
	}
	// All six (d, p) evaluations form one batch over the shared chunk
	// scheduler; each spec seeds from its own generator, so the fitted
	// points are identical to the former one-at-a-time evaluation.
	type fitCase struct {
		d int
		p float64
	}
	var (
		cases  []fitCase
		labels []string
		specs  []mc.Spec
	)
	shots := 40000
	for _, d := range []int{3, 5} {
		for _, p := range []float64{2e-3, 3.5e-3, 5e-3} {
			patch := code.NewPatch(lattice.NewSquare(d))
			c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: d, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
			if err != nil {
				return nil, err
			}
			cases = append(cases, fitCase{d: d, p: p})
			labels = append(labels, fmt.Sprintf("fit d=%d p=%.2g", d, p))
			specs = append(specs, mc.Spec{
				Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: d,
				RNG: rng.New(seed + uint64(d*1000) + uint64(p*1e6)),
			})
		}
	}
	results, err := evalLERBatch(ctx, labels, specs)
	if err != nil {
		return nil, err
	}
	var points []ler.Point
	for i, res := range results {
		if res.PerRoundLER > 0 {
			points = append(points, ler.Point{D: cases[i].d, P: cases[i].p, LER: res.PerRoundLER})
		}
		rep.AddRow(fmt.Sprintf("%d", cases[i].d), fmt.Sprintf("%.4g", cases[i].p),
			fmt.Sprintf("%d", shots), fmt.Sprintf("%.4g", res.PerRoundLER))
	}
	m, err := ler.Fit(points)
	if err != nil {
		return nil, err
	}
	rep.SetValue("alpha_fit", m.Alpha)
	rep.SetValue("pth_fit", m.Pth)
	rep.SetValue("alpha_paper", noise.Alpha)
	rep.SetValue("pth_paper", noise.Threshold)
	rep.AddNote("paper uses α=0.03, p_th=0.01; the union-find decoder's effective threshold is expected somewhat below MWPM's")
	return rep, nil
}
