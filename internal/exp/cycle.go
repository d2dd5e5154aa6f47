package exp

import (
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/rng"
	"context"
	"fmt"
)

// CycleLER is this reproduction's circuit-level extension of Fig. 10: where
// the paper evaluates the LER impact of isolation + reintegration through
// the analytic Eq. (4), this experiment Monte-Carlo-samples one continuous
// memory experiment that runs *through* a full CaliQEC calibration cycle —
// pristine rounds, DataQ_RM isolation, deformed rounds with gauge-fixing
// transition detectors, reintegration, pristine rounds — and decodes it end
// to end. The headline: the cycle's logical error rate stays within a small
// factor of the static code's over the same rounds, although one qubit is
// out of the code for a third of them, i.e. in-situ calibration keeps the
// code's protection at the circuit level. Both circuits come from the same
// generator, so they carry the same per-round noise.
func CycleLER(ctx context.Context, seed uint64) (*Report, error) {
	const (
		d      = 5
		p      = 2e-3
		rounds = 3 // per epoch (pristine / isolated / reintegrated)
		shots  = 60000
	)
	rep := &Report{
		ID:     "cycle",
		Title:  "Monte-Carlo LER through a full isolate→calibrate→reintegrate cycle (d=5)",
		Header: []string{"lattice", "scenario", "LER", "95% CI"},
	}
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		name := kind.String()
		mk := func() *code.Patch { return code.NewPatch(lattice.New(kind, d, d)) }
		// Static reference.
		static := mk()
		sc, err := static.MemoryCircuit(code.MemoryOptions{Rounds: 3 * rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
		if err != nil {
			return nil, err
		}
		// Calibration cycle.
		isoPatch := mk()
		df := deform.NewDeformer(isoPatch)
		if _, err := df.IsolateQubit(isoPatch.Lat.DataID[[2]int{2, 2}], "cycle"); err != nil {
			return nil, err
		}
		epochs := []code.Epoch{
			{Patch: mk(), Rounds: rounds},
			{Patch: df.Patch, Rounds: rounds},
			{Patch: mk(), Rounds: rounds},
		}
		cc, err := code.TimelineCircuit(epochs, code.TimelineOptions{Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
		if err != nil {
			return nil, err
		}
		// Static reference and cycle sample as one batch per lattice; the
		// per-spec seeds (seed+1, seed+2) match the former sequential runs.
		results, err := evalLERBatch(ctx,
			[]string{"cycle " + name + " static", "cycle " + name + " calibration"},
			[]mc.Spec{
				{Circuit: sc, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 3 * rounds,
					RNG: rng.New(seed + 1)},
				{Circuit: cc, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 3 * rounds,
					RNG: rng.New(seed + 2)},
			})
		if err != nil {
			return nil, err
		}
		sres, cres := results[0], results[1]
		rep.AddRow(name, "static", fmt.Sprintf("%.4g", sres.LER), fmt.Sprintf("[%.3g,%.3g]", sres.WilsonLo, sres.WilsonHi))
		rep.AddRow(name, "calibration cycle", fmt.Sprintf("%.4g", cres.LER), fmt.Sprintf("[%.3g,%.3g]", cres.WilsonLo, cres.WilsonHi))
		rep.SetValue(name+"_static", sres.LER)
		rep.SetValue(name+"_cycle", cres.LER)
		if sres.LER > 0 {
			rep.SetValue(name+"_ratio", cres.LER/sres.LER)
		}
	}
	rep.AddNote("extension experiment: the paper argues via Eq. (4) (Fig. 10); here the full deformation timeline is sampled and decoded directly")
	rep.AddNote("shape: cycle LER within a small factor (≈1-2x) of the static code — in-situ calibration preserves protection")
	return rep, nil
}
