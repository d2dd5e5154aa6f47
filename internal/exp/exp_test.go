package exp

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func osStat(dir, name string) (os.FileInfo, error) {
	return os.Stat(filepath.Join(dir, name))
}

// These tests assert the paper's qualitative shapes on every regenerated
// artifact — who wins, in which direction, by roughly what kind of factor —
// per the reproduction contract (absolute values are recorded in
// EXPERIMENTS.md instead).

func run(t *testing.T, id string) *Report {
	t.Helper()
	for _, e := range All() {
		if e.ID != id {
			continue
		}
		rep, err := e.Run(context.Background(), 2025)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return rep
	}
	t.Fatalf("unknown experiment %q", id)
	return nil
}

func TestFig1Shape(t *testing.T) {
	rep := run(t, "fig1")
	if rep.Values["frac_above_threshold_24h_nocal"] < 0.8 {
		t.Errorf("only %.2f of gates above threshold after 24h; paper reports >90%%",
			rep.Values["frac_above_threshold_24h_nocal"])
	}
	if rep.Values["frac_above_threshold_24h_cal"] > 0.05 {
		t.Errorf("calibrated device has %.2f above threshold; should stay ≈0",
			rep.Values["frac_above_threshold_24h_cal"])
	}
}

func TestFig7Shape(t *testing.T) {
	rep := run(t, "fig7")
	if rep.Values["tcali_opt_hours"] != 4 {
		t.Errorf("optimal T_Cali %.2f, want 4 (Fig. 7c)", rep.Values["tcali_opt_hours"])
	}
	if rep.Values["freq_opt"] >= rep.Values["freq_naive"] {
		t.Error("optimizer did not beat the naive interval")
	}
}

func TestFig9Shape(t *testing.T) {
	rep := run(t, "fig9")
	m := rep.Values["mean_hours"]
	if m < 13 || m > 15.2 {
		t.Errorf("drift-constant mean %.2f h, want ≈14.08", m)
	}
	if rep.Values["p90_hours"] < 20 {
		t.Errorf("p90 %.1f h: distribution lacks the paper's heavy tail", rep.Values["p90_hours"])
	}
}

func TestFig10Shape(t *testing.T) {
	rep := run(t, "fig10")
	if rep.Values["isolation_only_spikes"] != 1 {
		t.Error("isolation without enlargement must spike above the threshold")
	}
	if rep.Values["full_caliqec_spikes"] != 0 {
		t.Error("full CaliQEC must stay below the threshold")
	}
	if rep.Values["nocal_final_over_threshold"] < 100 {
		t.Error("no-calibration LER must grow far past the threshold")
	}
}

func TestFig11Shape(t *testing.T) {
	rep := run(t, "fig11")
	red := rep.Values["reduction_vs_uniform"]
	if red < 2.5 {
		t.Errorf("adaptive grouping reduction %.2fx; paper reports 3.63-11.1x", red)
	}
	if rep.Values["adaptive"] < rep.Values["ideal"] {
		t.Error("adaptive cannot beat the per-gate ideal")
	}
}

func TestFig12Shape(t *testing.T) {
	rep := run(t, "fig12")
	if rep.Values["seq_over_adaptive_mean"] < 2 {
		t.Errorf("adaptive only %.2fx better than sequential (paper: 2.89x)", rep.Values["seq_over_adaptive_mean"])
	}
	if rep.Values["bulk_over_adaptive_mean"] < 2 {
		t.Errorf("adaptive only %.2fx better than bulk (paper: 3.8x)", rep.Values["bulk_over_adaptive_mean"])
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rep := run(t, "fig13")
	for _, dev := range []string{"square", "hex"} {
		orig := rep.Values[dev+"_original"]
		iso2 := rep.Values[dev+"_isolated_drifted_2q"]
		d2q8 := rep.Values[dev+"_drifted_2q__8h_"]
		d2q24 := rep.Values[dev+"_drifted_2q__24h_"]
		d1q24 := rep.Values[dev+"_drifted_1q__24h_"]
		if d2q8 <= orig*0.95 {
			t.Errorf("%s: 8h 2Q drift did not raise LER (%.4g vs %.4g)", dev, d2q8, orig)
		}
		if d2q24 <= d2q8 {
			t.Errorf("%s: 24h drift not worse than 8h", dev)
		}
		if iso2 <= orig {
			t.Errorf("%s: isolation reported below original — suspicious", dev)
		}
		// The decision crossover: severe drift hurts more than isolating.
		if d2q24 <= iso2*0.95 {
			t.Errorf("%s: severely drifted 2Q (%.4g) not above isolated (%.4g)", dev, d2q24, iso2)
		}
		_ = d1q24
	}
}

func TestTable1Shape(t *testing.T) {
	rep := run(t, "table1")
	if rep.Values["square_count"] != 4 || rep.Values["heavy-hex_count"] != 6 {
		t.Errorf("instruction counts %v, want square=4 hex=6", rep.Values)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	rep := run(t, "table2")
	if v := rep.Values["lsc_qubit_overhead_mean"]; v < 2.5 || v > 4.5 {
		t.Errorf("LSC qubit overhead %.2f, want ≈3 (paper +363%%)", v)
	}
	if v := rep.Values["caliqec_qubit_overhead_mean"]; v < 0.08 || v > 0.35 {
		t.Errorf("CaliQEC qubit overhead %.2f, want ≈0.12-0.25 (paper 12-24%%)", v)
	}
	if v := rep.Values["lsc_time_overhead_mean"]; v < 0.03 || v > 0.3 {
		t.Errorf("LSC time overhead %.2f, want ≈0.1-0.2 (paper ~+20%%)", v)
	}
	if v := rep.Values["caliqec_risk_reduction_vs_lsc"]; v < 0.5 {
		t.Errorf("CaliQEC risk reduction vs LSC %.2f, want ≥0.5 (paper 0.794)", v)
	}
}

func TestFitShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rep := run(t, "fit")
	a, pth := rep.Values["alpha_fit"], rep.Values["pth_fit"]
	if a < 0.005 || a > 0.12 {
		t.Errorf("fitted α=%.4g far from the paper's 0.03", a)
	}
	if pth < 0.004 || pth > 0.015 {
		t.Errorf("fitted p_th=%.4g far from the paper's 0.01", pth)
	}
}

func TestCycleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rep := run(t, "cycle")
	for _, lat := range []string{"square", "heavy-hex"} {
		r := rep.Values[lat+"_ratio"]
		if r > 2.5 {
			t.Errorf("%s: calibration cycle LER %.2fx static — deformation should be nearly free", lat, r)
		}
		if rep.Values[lat+"_static"] <= 0 {
			t.Errorf("%s: static run saw no failures; experiment underpowered", lat)
		}
	}
}

func TestAblateDeltaDShape(t *testing.T) {
	rep := run(t, "ablate-deltad")
	prev := -1.0
	for _, dd := range []int{1, 2, 4, 8} {
		v := rep.Values[fmtKey("overhead_dd%d", dd)]
		if v <= prev {
			t.Errorf("qubit overhead not increasing in Δd: %.3f after %.3f", v, prev)
		}
		prev = v
	}
}

func fmtKey(f string, a int) string { return fmt.Sprintf(f, a) }

func TestAblatePriorsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rep := run(t, "ablate-priors")
	if rep.Values["stale_penalty"] < 1.05 {
		t.Errorf("stale priors penalty %.2fx; expected a clear cost", rep.Values["stale_penalty"])
	}
}

func TestRoutingShape(t *testing.T) {
	rep := run(t, "routing")
	if rep.Values["parallelism_800"] <= rep.Values["parallelism_16"] {
		t.Error("routing parallelism should grow with fabric size")
	}
	if rep.Values["parallelism_largest"] < 8.6 {
		t.Errorf("largest fabric sustains only %.1f parallel ops; Table 2 needs up to 8.6", rep.Values["parallelism_largest"])
	}
}

func TestAblateWindowShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rep := run(t, "ablate-window")
	const shots = 40000.0
	for _, d := range []int{3, 5} {
		whole := rep.Values[fmtKey("whole_d%d", d)]
		if whole <= 0 {
			t.Fatalf("d=%d: no whole-shot failures; experiment underpowered", d)
		}
		// A window of d+1 rounds (and anything wider) must match whole-shot
		// within statistical tolerance (5 sigma of the whole-shot failure
		// count plus a small floor) — the committed equivalence criterion for
		// streaming decoding. At d=3 that bound is already met at W=3.
		tol := (5*math.Sqrt(whole*shots) + 5) / shots
		for _, w := range []int{d + 1, 2*d + 2} {
			wl := rep.Values[fmt.Sprintf("w%d_d%d", w, d)]
			if diff := wl - whole; diff > tol || diff < -tol {
				t.Errorf("d=%d W=%d: windowed LER %.4g vs whole-shot %.4g exceeds tolerance %.4g", d, w, wl, whole, tol)
			}
		}
		// Narrow windows degrade monotonically, never catastrophically:
		// W=2 commits every time-like chain one round early.
		w2, w3 := rep.Values[fmt.Sprintf("w2_d%d", d)], rep.Values[fmt.Sprintf("w3_d%d", d)]
		if w2 < w3-tol {
			t.Errorf("d=%d: W=2 LER %.4g below W=3 %.4g; widening the window must not hurt", d, w2, w3)
		}
		if w2 > 10*whole {
			t.Errorf("d=%d: W=2 LER %.4g more than 10x whole-shot %.4g — commit rule broken, not just early", d, w2, whole)
		}
	}
}

func TestReportExport(t *testing.T) {
	rep := run(t, "fig7")
	dir := t.TempDir()
	if err := rep.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(js) < 50 {
		t.Error("JSON suspiciously small")
	}
	for _, name := range []string{"fig7.json", "fig7.csv"} {
		if _, err := osStat(dir, name); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestLocalizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	rep := run(t, "localize")
	if rep.Values["hot_qubit_rank"] > 3 {
		t.Errorf("hot qubit ranked %v, want top 3", rep.Values["hot_qubit_rank"])
	}
	if rep.Values["top3_in_neighbourhood"] < 2 {
		t.Errorf("only %v of the top 3 suspects touch the drifted gate", rep.Values["top3_in_neighbourhood"])
	}
}

func TestDecodeCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo + timing")
	}
	rep := run(t, "decode-cost")
	r := rep.Values["deformed_over_pristine"]
	if r > 2.5 {
		t.Errorf("deformed decoding costs %.2fx pristine; paper claims minimal impact", r)
	}
}

// TestDriftInjectShape is the drift-detection gate: injected drift must be
// flagged within the detection budget with zero false positives on the
// steady control. Deliberately NOT skipped under -short — it is the stream
// observability layer's end-to-end CI check and sized to stay fast.
func TestDriftInjectShape(t *testing.T) {
	rep := run(t, "drift-inject")
	if got := rep.Values["steady_false_positives"]; got != 0 {
		t.Errorf("steady control produced %g drift events, want 0", got)
	}
	budget := rep.Values["detection_budget_windows"]
	for _, scenario := range []string{"transient", "ramp"} {
		if rep.Values[scenario+"_detected"] != 1 {
			t.Errorf("%s drift never detected", scenario)
			continue
		}
		if d := rep.Values[scenario+"_detect_windows"]; d < 1 || d > budget {
			t.Errorf("%s detected after %g windows, budget is [1, %g]", scenario, d, budget)
		}
	}
	if rep.Values["transient_qubit_hit"] != 1 {
		t.Error("transient jump not attributed to the injected measure ancilla")
	}
	if rep.Values["ramp_flags_adjacent_checks"] != 1 {
		t.Error("ramp flagged qubits outside the hot data qubit's check neighbourhood")
	}
}
