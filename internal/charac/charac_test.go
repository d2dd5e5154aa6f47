package charac

import (
	"caliqec/internal/device"
	"caliqec/internal/lattice"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"math"
	"slices"
	"testing"
)

func TestInterleavedRBRecoversError(t *testing.T) {
	r := rng.New(1)
	for _, trueErr := range []float64{5e-4, 2e-3, 8e-3} {
		// Average several estimates to beat shot noise in the test.
		var ests []float64
		for k := 0; k < 10; k++ {
			ests = append(ests, InterleavedRB(trueErr, RBLengths, RBShots, r))
		}
		est := rng.Mean(ests)
		if math.Abs(est-trueErr)/trueErr > 0.3 {
			t.Errorf("RB estimate %.4g for true %.4g (>30%% off)", est, trueErr)
		}
	}
}

func TestEstimateDriftRecoversConstant(t *testing.T) {
	lat := lattice.NewSquare(3)
	r := rng.New(7)
	dev := device.New(lat, r)
	// Fix a known drift for gate 0.
	dev.Gates[0].Drift = noise.Drift{P0: 1e-3, TDrift: 9}
	est := EstimateDrift(dev, 0, r)
	if math.Abs(est.TDrift-9)/9 > 0.35 {
		t.Errorf("estimated T_drift %.2fh, want ≈9h", est.TDrift)
	}
	if math.Abs(math.Log10(est.P0/1e-3)) > 0.4 {
		t.Errorf("estimated p0 %.4g, want ≈1e-3", est.P0)
	}
}

func TestEstimateDriftSlowGate(t *testing.T) {
	lat := lattice.NewSquare(3)
	r := rng.New(8)
	dev := device.New(lat, r)
	dev.Gates[0].Drift = noise.Drift{P0: 1e-3, TDrift: 500} // nearly static
	est := EstimateDrift(dev, 0, r)
	if est.TDrift < 24 {
		t.Errorf("nearly-static gate estimated at T=%.1fh; should report slow drift", est.TDrift)
	}
}

func TestProbeCrosstalkFindsNeighbourhood(t *testing.T) {
	lat := lattice.NewSquare(5)
	r := rng.New(3)
	dev := device.New(lat, r)
	hits, misses, spurious := 0, 0, 0
	for i := 0; i < 20; i++ {
		g := &dev.Gates[i]
		est := ProbeCrosstalk(dev, g.ID, r)
		estSet := map[int]bool{}
		for _, q := range est {
			estSet[q] = true
		}
		for _, q := range g.Nbr {
			if estSet[q] {
				hits++
			} else {
				misses++
			}
		}
		for _, q := range est {
			found := false
			for _, x := range g.Nbr {
				if x == q {
					found = true
				}
			}
			if !found {
				spurious++
			}
		}
	}
	recall := float64(hits) / float64(hits+misses)
	if recall < 0.9 {
		t.Errorf("crosstalk probe recall %.2f, want ≥ 0.9", recall)
	}
	if spurious > hits/5 {
		t.Errorf("crosstalk probe too many false positives: %d vs %d hits", spurious, hits)
	}
}

func TestCharacterizeEndToEnd(t *testing.T) {
	lat := lattice.NewSquare(3)
	r := rng.New(11)
	dev := device.New(lat, r)
	ch := Characterize(dev, r)
	if len(ch.Gates) != len(dev.Gates) {
		t.Fatalf("characterized %d gates, want %d", len(ch.Gates), len(dev.Gates))
	}
	// Estimated drift constants must correlate with the truth: compare
	// orderings on a sample of well-separated pairs.
	good, bad := 0, 0
	for i := 0; i+1 < len(ch.Gates); i += 2 {
		a, b := &dev.Gates[i], &dev.Gates[i+1]
		ea, eb := ch.Gate(a.ID), ch.Gate(b.ID)
		if ea == nil || eb == nil {
			t.Fatal("missing characterization entry")
		}
		if a.Drift.TDrift < b.Drift.TDrift/2 || a.Drift.TDrift > 2*b.Drift.TDrift {
			if (a.Drift.TDrift < b.Drift.TDrift) == (ea.Drift.TDrift < eb.Drift.TDrift) {
				good++
			} else {
				bad++
			}
		}
	}
	if good+bad > 0 && float64(good)/float64(good+bad) < 0.8 {
		t.Errorf("drift ordering recovered %d/%d", good, good+bad)
	}
	// Calibration durations within jitter of the truth.
	for _, gc := range ch.Gates {
		truth := dev.Gate(gc.GateID).CaliHours
		if math.Abs(gc.CaliHours-truth)/truth > 0.06 {
			t.Errorf("gate %d calibration time %.4f vs truth %.4f", gc.GateID, gc.CaliHours, truth)
		}
	}
}

// TestCharacterizeDeterministic pins the crosstalk probe's draw order: one
// device characterized again and again from one seed must report the same
// neighbourhood for every gate.
func TestCharacterizeDeterministic(t *testing.T) {
	dev := device.New(lattice.NewHeavyHex(5), rng.New(1))
	want := Characterize(dev, rng.New(2))
	for i := 0; i < 20; i++ {
		got := Characterize(dev, rng.New(2))
		for j, g := range got.Gates {
			if !slices.Equal(g.Nbr, want.Gates[j].Nbr) {
				t.Fatalf("call %d: gate %d nbr %v, first call %v", i, g.GateID, g.Nbr, want.Gates[j].Nbr)
			}
		}
	}
}
