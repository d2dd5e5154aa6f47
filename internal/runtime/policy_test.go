package runtime

import (
	"caliqec/internal/ler"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"caliqec/internal/workload"
	"context"
	"math"
	"testing"
)

func testConfig() Config {
	return Config{
		Prog:        workload.Hubbard(10, 10),
		D:           25,
		RetryTarget: 0.01,
		Seed:        5,
	}
}

// TestCaliQECNeverExceedsPTar: the defining property of the in-situ
// schedule — no gate's error rate ever passes the target between
// calibrations.
func TestCaliQECNeverExceedsPTar(t *testing.T) {
	cfg := testConfig()
	cfg.fill()
	pTar, err := PTarFor(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSimulator(&cfg, rng.New(1), 20, pTar)
	pol := newPolicyCaliQEC(pTar)
	mu, sigma := lnParams(cfg.Model)
	gates := make([]gateState, 128)
	for i := range gates {
		gates[i].drift = noise.Drift{P0: noise.InitialErrorRate, TDrift: rng.LogNormInv(clampP(rng.New(uint64(i)).Float64()), mu, sigma)}
		gates[i].deadline = gates[i].drift.TimeToReach(pTar)
		gates[i].weight = 1
	}
	pol.init(context.Background(), sim, gates)
	for tt := 0.0; tt < 20; tt += stepHours {
		pol.step(sim, gates, tt)
		for i := range gates {
			p := gates[i].drift.At(tt - gates[i].last)
			if p > pTar*1.0001 {
				t.Fatalf("gate %d at p=%.4g > p_tar=%.4g at t=%.2f (deadline %.2f, last %.2f)",
					i, p, pTar, tt, gates[i].deadline, gates[i].last)
			}
		}
	}
	if sim.cals == 0 {
		t.Error("no calibrations performed")
	}
}

// TestLSCPeriodBoundedByCapacity: the coarse-grained baseline cannot park
// patches faster than the transfer channels allow.
func TestLSCPeriodBoundedByCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.fill()
	pol := newPolicyLSC(&cfg, 2e-3)
	wantMin := float64(cfg.Prog.LogicalQubits) * lscOutageHours / (0.9 * float64(cfg.Prog.LogicalQubits) / 12)
	if pol.period < wantMin-1e-9 {
		t.Errorf("LSC period %.3f below the capacity bound %.3f", pol.period, wantMin)
	}
}

// TestNoCalRiskMonotoneInHorizon: longer programs can only accumulate more
// retry risk without calibration.
func TestNoCalRiskMonotoneInHorizon(t *testing.T) {
	prev := -1.0
	for _, par := range []float64{30, 10, 3} { // higher parallelism = shorter program
		cfg := testConfig()
		cfg.Prog.Parallelism = par
		res, err := Run(context.Background(), cfg, StrategyNoCal)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.RetryRisk < prev-1e-6 {
			t.Errorf("risk decreased for longer program: %.4g after %.4g", res.RetryRisk, prev)
		}
		prev = res.RetryRisk
	}
}

// TestPTarForScalesWithBudget: a looser retry budget must allow a higher
// target physical rate.
func TestPTarForScalesWithBudget(t *testing.T) {
	cfgTight := testConfig()
	cfgTight.RetryTarget = 0.001
	cfgTight.fill()
	cfgLoose := testConfig()
	cfgLoose.RetryTarget = 0.01
	cfgLoose.fill()
	pt, err := PTarFor(&cfgTight)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PTarFor(&cfgLoose)
	if err != nil {
		t.Fatal(err)
	}
	if pl <= pt {
		t.Errorf("loose budget p_tar %.4g ≤ tight %.4g", pl, pt)
	}
}

// TestPTarForRejectsHopelessDistance: a small distance on a huge program
// leaves no drift headroom.
func TestPTarForRejectsHopelessDistance(t *testing.T) {
	cfg := Config{Prog: workload.Jellium(1024), D: 15, RetryTarget: 0.001}
	cfg.fill()
	if _, err := PTarFor(&cfg); err == nil {
		t.Error("d=15 on jellium-1024 should be rejected")
	}
}

// TestFutureModelNeedsFewerCalibrations: doubling drift constants halves
// the calibration volume, roughly.
func TestFutureModelNeedsFewerCalibrations(t *testing.T) {
	cur := testConfig()
	res1, err := Run(context.Background(), cur, StrategyCaliQEC)
	if err != nil {
		t.Fatal(err)
	}
	fut := testConfig()
	fut.Model = noise.FutureModel()
	res2, err := Run(context.Background(), fut, StrategyCaliQEC)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Calibrations >= res1.Calibrations {
		t.Errorf("future model calibrations %.3g ≥ current %.3g", res2.Calibrations, res1.Calibrations)
	}
	ratio := res1.Calibrations / res2.Calibrations
	if ratio < 1.4 || ratio > 4 {
		t.Errorf("calibration ratio current/future = %.2f, want ≈2", ratio)
	}
}

// TestHotSaturationBound: the per-gate LER cap equals hotSaturation × the
// at-target LER and binds below threshold.
func TestHotSaturationBound(t *testing.T) {
	cfg := testConfig()
	cfg.fill()
	pTar := 2e-3
	sim := newSimulator(&cfg, rng.New(1), 10, pTar)
	m := ler.PaperModel()
	gates := []gateState{
		{drift: noise.Drift{P0: 5e-3, TDrift: 1e9}, weight: 1},                     // hot but sub-threshold
		{drift: noise.Drift{P0: noise.InitialErrorRate, TDrift: 1e9}, weight: 1e9}, // cold bulk
	}
	for i := range gates {
		gates[i].deadline = math.Inf(1)
	}
	sim.accumulate(gates, 0)
	bound := 1e3 * m.PerCycle(cfg.D, pTar)
	// The single hot gate contributes ≤ bound/1e9 to the weighted mean.
	if sim.lerSum > bound {
		t.Errorf("accumulated LER %.4g exceeds the saturation cap %.4g", sim.lerSum, bound)
	}
}
