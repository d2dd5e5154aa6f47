// Driftmonitor: device characterization and drift dynamics, in the style of
// the paper's Fig. 1 / Fig. 9 / Fig. 11 component analyses.
//
//	go run ./examples/driftmonitor
//
// It synthesizes an Eagle-class heavy-hex device, watches its gates drift
// past the surface-code threshold over 24 hours, re-estimates the drift
// constants through simulated interleaved randomized benchmarking, and
// compares the calibration volume of uniform vs Algorithm-1 adaptive
// grouping over a week.
package main

import (
	"caliqec/internal/charac"
	"caliqec/internal/device"
	"caliqec/internal/lattice"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"caliqec/internal/sched"
	"fmt"
	"log"
	"math"
	"strings"
)

func main() {
	r := rng.New(7)
	lat := lattice.NewHeavyHex(7)
	dev := device.New(lat, r)
	model := noise.CurrentModel()
	fmt.Printf("synthetic Eagle-class device: %d qubits, %d gates, drift model %q (mean %.2f h)\n\n",
		lat.NumQubits(), len(dev.Gates), model.Name, model.MeanHours)

	// Fig. 1: fraction of gates above threshold vs time.
	fmt.Println("drift without calibration (threshold = 1%):")
	for h := 0; h <= 24; h += 4 {
		f := dev.FractionAbove(float64(h), noise.Threshold)
		bar := strings.Repeat("#", int(f*40))
		fmt.Printf("  t=%2dh  %5.1f%%  %s\n", h, 100*f, bar)
	}

	// Preparation stage: re-estimate three gates' drift laws via RB and
	// compare with the hidden ground truth.
	fmt.Println("\ninterleaved-RB drift estimation (estimate vs ground truth):")
	for _, id := range []int{0, 10, 20} {
		est := charac.EstimateDrift(dev, id, r)
		truth := dev.Gate(id).Drift
		fmt.Printf("  gate %-3d T_drift: %.1f h (true %.1f h), p0: %.2g (true %.2g)\n",
			id, est.TDrift, truth.TDrift, est.P0, truth.P0)
	}

	// Fig. 11: adaptive grouping vs uniform calibration over a week.
	ch := charac.Characterize(dev, r)
	pTar := noise.InitialErrorRate * math.Pow(10, 0.5)
	var profiles []sched.GateProfile
	for _, gc := range ch.Gates {
		p := sched.GateProfile{GateID: gc.GateID, Drift: gc.Drift, CaliHours: gc.CaliHours, Nbr: gc.Nbr}
		if p.DeadlineHours(pTar) < 7*24 {
			profiles = append(profiles, p)
		}
	}
	gr, err := sched.AssignGroups(profiles, pTar)
	if err != nil {
		log.Fatal(err)
	}
	const horizon = 7 * 24.0
	minDl := math.Inf(1)
	ideal := 0.0
	for i := range profiles {
		d := profiles[i].DeadlineHours(pTar)
		ideal += math.Floor(horizon / d)
		if d < minDl {
			minDl = d
		}
	}
	uniform := float64(len(profiles)) * math.Floor(horizon/minDl)
	adaptive := 0.0
	for k, g := range gr.Groups {
		adaptive += float64(len(g)) * math.Floor(horizon/(float64(k)*gr.TCaliHours))
	}
	fmt.Printf("\ncalibration volume over 7 days (%d gates due, T_Cali = %.2f h):\n", len(profiles), gr.TCaliHours)
	fmt.Printf("  uniform  : %6.0f operations\n", uniform)
	fmt.Printf("  adaptive : %6.0f operations (%.1fx fewer — paper reports 3.63-11.1x)\n", adaptive, uniform/adaptive)
	fmt.Printf("  ideal    : %6.0f operations (per-gate schedule)\n", ideal)
}
