package device

import (
	"caliqec/internal/lattice"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"testing"
)

func TestDeviceSynthesis(t *testing.T) {
	lat := lattice.NewSquare(5)
	dev := New(lat, rng.New(1))
	// One 1Q gate per qubit plus one 2Q gate per coupling edge.
	n1, n2 := 0, 0
	for i := range dev.Gates {
		g := &dev.Gates[i]
		switch g.Kind {
		case Gate1Q:
			n1++
			if len(g.Qubits) != 1 {
				t.Errorf("1Q gate %d has %d qubits", g.ID, len(g.Qubits))
			}
		case Gate2Q:
			n2++
			if len(g.Qubits) != 2 {
				t.Errorf("2Q gate %d has %d qubits", g.ID, len(g.Qubits))
			}
		}
		if g.Drift.TDrift <= 0 {
			t.Errorf("gate %d has non-positive drift constant", g.ID)
		}
		if g.CaliHours < 2.0/60-1e-9 || g.CaliHours > 10.0/60+1e-9 {
			t.Errorf("gate %d calibration %.3fh outside [2,10] minutes", g.ID, g.CaliHours)
		}
		// The crosstalk neighbourhood always contains the gate's qubits.
		for _, q := range g.Qubits {
			found := false
			for _, n := range g.Nbr {
				if n == q {
					found = true
				}
			}
			if !found {
				t.Errorf("gate %d nbr misses own qubit %d", g.ID, q)
			}
		}
	}
	if n1 != lat.NumQubits() {
		t.Errorf("%d 1Q gates, want %d", n1, lat.NumQubits())
	}
	if n2 == 0 {
		t.Error("no 2Q gates")
	}
}

func TestCalibrationResetsDrift(t *testing.T) {
	dev := New(lattice.NewSquare(3), rng.New(2))
	g := dev.Gate(0)
	p12 := g.ErrorRate(12)
	if p12 <= g.Drift.P0 {
		t.Fatal("no drift after 12h")
	}
	dev.Calibrate(0, 12)
	if got := g.ErrorRate(12); got != g.Drift.P0 {
		t.Errorf("rate right after calibration %.4g, want p0", got)
	}
	if g.ErrorRate(13) <= g.Drift.P0 {
		t.Error("drift should resume after calibration")
	}
}

func TestFractionAboveMonotone(t *testing.T) {
	dev := New(lattice.NewHeavyHex(5), rng.New(3))
	prev := -1.0
	for _, h := range []float64{0, 6, 12, 24, 48} {
		f := dev.FractionAbove(h, noise.Threshold)
		if f < prev {
			t.Errorf("fraction above threshold decreased: %.3f after %.3f", f, prev)
		}
		prev = f
	}
	if dev.FractionAbove(0, noise.Threshold) != 0 {
		t.Error("freshly calibrated device should have nothing above threshold")
	}
	if dev.FractionAbove(96, noise.Threshold) < 0.9 {
		t.Errorf("after 4 days only %.2f above threshold", dev.FractionAbove(96, noise.Threshold))
	}
}

func TestNoiseAtLowersToMap(t *testing.T) {
	dev := New(lattice.NewSquare(3), rng.New(4))
	m := dev.NoiseAt(10)
	// Every qubit has an explicit 1Q rate above p0.
	for q := 0; q < dev.Lat.NumQubits(); q++ {
		if m.Gate1(q) <= noise.InitialErrorRate {
			t.Errorf("qubit %d rate %.4g not drifted", q, m.Gate1(q))
		}
	}
	// 2Q rates follow coupling pairs.
	any2 := false
	for q := 0; q < dev.Lat.NumQubits(); q++ {
		for _, nb := range dev.Lat.Neighbors(q) {
			if m.Gate2(q, nb) > noise.InitialErrorRate {
				any2 = true
			}
		}
	}
	if !any2 {
		t.Error("no drifted 2Q rates found")
	}
}

func TestGatesOnQubit(t *testing.T) {
	dev := New(lattice.NewSquare(3), rng.New(5))
	gs := dev.GatesOnQubit(0)
	if len(gs) < 2 { // its 1Q gate plus at least one coupler
		t.Errorf("qubit 0 has %d gates", len(gs))
	}
	for _, id := range gs {
		found := false
		for _, q := range dev.Gate(id).Qubits {
			if q == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("gate %d does not touch qubit 0", id)
		}
	}
}
