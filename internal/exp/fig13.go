package exp

import (
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"context"
	"fmt"
	"math"
)

// fig13Shots is the Monte-Carlo budget per scenario.
const fig13Shots = 60000

// fig13Distance matches the paper's hardware experiments (d = 3).
const fig13Distance = 3

// Per-device calibrated base error rates. Real devices run near the
// surface-code threshold (the paper's Fig. 1 shows hardware hovering around
// 1%), which is what makes Fig. 13's trade-off work: one unit of distance
// lost to isolation is cheap near threshold, while a drifted gate decoded
// with stale priors is expensive. The heavy hexagon's longer extraction
// circuits give it a lower threshold, hence the lower base rate for the
// same pristine-LER regime.
const (
	fig13BaseSquare = 1.2e-2
	fig13BaseHex    = 4.5e-3
)

// Drift severities: the paper's hardware scenario replaces calibration
// parameters with 8-hour-old ones (10^(8/14.08) ≈ 3.7× at the mean drift
// constant). On this simulated substrate the d=3 isolation cost is higher
// than on the paper's hardware (see EXPERIMENTS.md), so the decision
// crossover — where cutting the gate out beats leaving it in — is also
// shown at a 24-hour drift (10^(24/14.08) ≈ 50×), the horizon at which
// Fig. 1 reports >90% of gates beyond threshold.
var (
	fig13Drift8h  = math.Pow(10, 8/noise.CurrentDriftMeanHours)
	fig13Drift24h = math.Pow(10, 24/noise.CurrentDriftMeanHours)
)

// Fig13RealDevice reproduces Fig. 13: the logical error rate of a d=3
// surface code on square-lattice (Rigetti-class) and heavy-hex (IBM-class)
// devices under five scenarios: optimally calibrated, one drifted 1Q gate,
// one drifted 2Q gate, and the two drifted cases with the affected qubit
// isolated via the CaliQEC instruction set.
//
// The paper ran these on real hardware; here the same circuits run on the
// Monte-Carlo substrate. Two modelling choices transfer the hardware
// conditions: base rates sit near threshold (see the constants above), and
// drifted scenarios are decoded with the calibrated priors — the decoder
// has not been told the gate drifted, exactly as on a real machine between
// calibrations. Deformed patches get freshly derived decoders because
// updating the decoder is part of the CaliQEC deformation protocol.
// Absolute percentages differ from the hardware numbers, but the orderings
// the paper argues from — drifted ≫ isolated > original, and the heavy
// hexagon more drift-sensitive than the square — are asserted by the test
// suite.
func Fig13RealDevice(ctx context.Context, seed uint64) (*Report, error) {
	rep := &Report{
		ID:     "fig13",
		Title:  fmt.Sprintf("d=%d LER under single-gate drift and CaliQEC isolation", fig13Distance),
		Header: []string{"device", "scenario", "LER", "95% CI", "vs original"},
	}
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		name, key, p0 := "square(Ankaa-2-class)", "square", fig13BaseSquare
		if kind == lattice.HeavyHex {
			name, key, p0 = "heavy-hex(Eagle-class)", "hex", fig13BaseHex
		}
		mk := func() *code.Patch { return code.NewPatch(lattice.New(kind, fig13Distance, fig13Distance)) }
		base := mk()
		// Target gates: the 1Q gate lives on an interior data qubit (its
		// idle/echo channel runs every round), the 2Q gate is that data
		// qubit's coupler to one of its measurement ancillas.
		dq := base.Lat.DataID[[2]int{1, 1}]
		var anc int = -1
		for _, nb := range base.Lat.Neighbors(dq) {
			anc = nb
			break
		}
		if anc < 0 {
			return nil, fmt.Errorf("exp: no ancilla coupled to data qubit %d", dq)
		}

		// buildSpec assembles one scenario's spec: the sampled circuit under
		// the scenario's noise, decoded with calibrated (stale) priors, and
		// the scenario's own dedicated generator.
		buildSpec := func(patch *code.Patch, nm code.NoiseModel, seedOff uint64) (mc.Spec, error) {
			c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: fig13Distance, Basis: lattice.BasisZ, Noise: nm})
			if err != nil {
				return mc.Spec{}, err
			}
			prior, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: fig13Distance, Basis: lattice.BasisZ, Noise: code.UniformNoise(p0)})
			if err != nil {
				return mc.Spec{}, err
			}
			return mc.Spec{
				Circuit: c, Prior: prior, Decoder: decoder.KindUnionFind,
				Shots: fig13Shots, Rounds: fig13Distance, RNG: rng.New(seed + seedOff),
			}, nil
		}

		// Drifted 1Q: the data qubit's single-qubit operations degrade.
		mk1Q := func(factor float64) *noise.Map {
			n := noise.NewMap(p0)
			n.Gate1Q[dq] = p0 * factor
			n.MeasQ[dq] = p0 * factor
			n.ResetQ[dq] = p0 * factor
			return n
		}
		// Drifted 2Q: the (ancilla, data) coupler degrades.
		mk2Q := func(factor float64) *noise.Map {
			n := noise.NewMap(p0)
			n.SetGate2(anc, dq, math.Min(0.75, p0*factor))
			return n
		}
		// Isolated variants: the affected data qubit leaves the code via
		// DataQ_RM, retiring both the drifted 1Q channel and the coupler;
		// the cost is the deformation's distance loss.
		isolate := func() (*code.Patch, error) {
			p := mk()
			d := deform.NewDeformer(p)
			if _, err := d.IsolateQubit(dq, "fig13"); err != nil {
				return nil, err
			}
			return d.Patch, nil
		}
		iso1, err := isolate()
		if err != nil {
			return nil, err
		}
		iso2, err := isolate()
		if err != nil {
			return nil, err
		}
		// The original plus all six drift/isolation scenarios evaluate as one
		// batch per device; per-scenario seed offsets match the former
		// sequential evaluation order, so the numbers are unchanged.
		scenarios := []struct {
			label   string
			patch   *code.Patch
			noise   code.NoiseModel
			seedOff uint64
		}{
			{"original", base, code.UniformNoise(p0), 1},
			{"drifted-1Q (8h)", mk(), mk1Q(fig13Drift8h), 10},
			{"drifted-2Q (8h)", mk(), mk2Q(fig13Drift8h), 11},
			{"drifted-1Q (24h)", mk(), mk1Q(fig13Drift24h), 12},
			{"drifted-2Q (24h)", mk(), mk2Q(fig13Drift24h), 13},
			{"isolated drifted-1Q", iso1, code.UniformNoise(p0), 14},
			{"isolated drifted-2Q", iso2, code.UniformNoise(p0), 15},
		}
		var (
			labels []string
			specs  []mc.Spec
		)
		for _, sc := range scenarios {
			spec, err := buildSpec(sc.patch, sc.noise, sc.seedOff)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, sc.label, err)
			}
			labels = append(labels, "fig13 "+key+" "+sc.label)
			specs = append(specs, spec)
		}
		results, err := evalLERBatch(ctx, labels, specs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		orig := results[0].LER
		rep.AddRow(name, "original", fmt.Sprintf("%.4g", orig),
			fmt.Sprintf("[%.3g,%.3g]", results[0].WilsonLo, results[0].WilsonHi), "1.00x")
		rep.SetValue(key+"_original", orig)
		for i, sc := range scenarios[1:] {
			res := results[i+1]
			rep.AddRow(name, sc.label, fmt.Sprintf("%.4g", res.LER),
				fmt.Sprintf("[%.3g,%.3g]", res.WilsonLo, res.WilsonHi),
				fmt.Sprintf("%.2fx (%+.1f%%)", res.LER/orig, 100*(res.LER/orig-1)))
			rep.SetValue(key+"_"+keyify(sc.label), res.LER)
		}
	}
	rep.AddNote("paper (hardware): square +41.6%%/+135.5%% drifted, +13.1%%/+21.0%% isolated; heavy-hex +55.0%%/+178.2%% drifted, +22.8%%/+33.6%% isolated")
	rep.AddNote("shape to check: drifted >> isolated for the 2Q gate; isolation bounds the increase; heavy-hex more sensitive")
	return rep, nil
}

func keyify(s string) string {
	out := make([]rune, 0, len(s))
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+32)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
