package obs

import (
	"math"
	"testing"
)

func TestFixedPointRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1e-6, 0.01, 0.5, 1} {
		got := FromFixed(ToFixed(v))
		if math.Abs(got-v) > 1.0/float64(FPOne) {
			t.Errorf("ToFixed/FromFixed(%g) = %g", v, got)
		}
	}
}

func TestRateEstimatorStableSeriesNeverTrips(t *testing.T) {
	cfg := RateConfig{EWMAShift: 3, Warmup: 4, Slack: ToFixed(0.01), Threshold: ToFixed(0.05)}
	var e RateEstimator
	// Steady rate with sub-slack jitter: CUSUM must stay disarmed.
	rates := []float64{0.020, 0.022, 0.019, 0.021, 0.020, 0.023, 0.018, 0.021, 0.020, 0.022}
	for i, r := range rates {
		if e.Update(cfg, ToFixed(r)) {
			t.Fatalf("window %d: steady series tripped (score %g)", i, FromFixed(e.Score()))
		}
	}
	if e.Trips() != 0 || e.LastTrip() != 0 {
		t.Fatalf("trips=%d lastTrip=%d on a steady series", e.Trips(), e.LastTrip())
	}
	base := FromFixed(e.Baseline())
	if base < 0.015 || base > 0.025 {
		t.Errorf("baseline %g not near the series mean", base)
	}
}

func TestRateEstimatorDetectsStep(t *testing.T) {
	cfg := RateConfig{EWMAShift: 3, Warmup: 4, Slack: ToFixed(0.01), Threshold: ToFixed(0.05)}
	var e RateEstimator
	for i := 0; i < 6; i++ {
		if e.Update(cfg, ToFixed(0.02)) {
			t.Fatalf("pre-step window %d tripped", i)
		}
	}
	// 3x step: excess per window = 0.06-0.02-0.01 = 0.03, so the threshold
	// of 0.05 is reached on the second post-step window.
	tripped := -1
	for i := 0; i < 5; i++ {
		if e.Update(cfg, ToFixed(0.06)) {
			tripped = i
			break
		}
	}
	if tripped != 1 {
		t.Fatalf("step tripped at post-step window %d, want 1", tripped)
	}
	if e.Score() != 0 {
		t.Errorf("CUSUM not restarted after trip: %d", e.Score())
	}
	// The shift persists: Page restart re-trips.
	again := false
	for i := 0; i < 3 && !again; i++ {
		again = e.Update(cfg, ToFixed(0.06))
	}
	if !again {
		t.Error("persistent shift did not re-trip after restart")
	}
	if e.Trips() != 2 {
		t.Errorf("trips = %d, want 2", e.Trips())
	}
}

func TestRateEstimatorDeterminism(t *testing.T) {
	cfg := RateConfig{EWMAShift: 2, Warmup: 3, Slack: ToFixed(0.005), Threshold: ToFixed(0.02)}
	series := []int64{ToFixed(0.01), ToFixed(0.012), ToFixed(0.011), ToFixed(0.05), ToFixed(0.049), ToFixed(0.05)}
	run := func() (RateEstimator, []bool) {
		var e RateEstimator
		var trips []bool
		for _, r := range series {
			trips = append(trips, e.Update(cfg, r))
		}
		return e, trips
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 {
		t.Fatalf("estimator state diverged: %+v vs %+v", e1, e2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trip sequence diverged at %d", i)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// 1000 samples of value 100: every quantile must land inside 100's
	// bucket [64, 127].
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 64 || got > 127 {
			t.Errorf("quantile(%g) = %g outside bucket [64, 127]", q, got)
		}
	}

	// Bimodal: 99 small samples and 1 large one. p50 must sit in the small
	// bucket, p100 in the large one.
	var h2 Histogram
	for i := 0; i < 99; i++ {
		h2.Observe(10) // bucket [8, 15]
	}
	h2.Observe(1000) // bucket [512, 1023]
	if got := h2.Quantile(0.5); got < 8 || got > 15 {
		t.Errorf("bimodal p50 = %g, want within [8, 15]", got)
	}
	if got := h2.Quantile(1); got < 512 || got > 1023 {
		t.Errorf("bimodal p100 = %g, want within [512, 1023]", got)
	}
	// p99 ranks the 99th of 100 samples: still the small bucket.
	if got := h2.Quantile(0.99); got < 8 || got > 15 {
		t.Errorf("bimodal p99 = %g, want within [8, 15]", got)
	}

	// Interpolation is monotone in q within one bucket.
	var h3 Histogram
	for i := 0; i < 100; i++ {
		h3.Observe(100)
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		got := h3.Quantile(q)
		if got < prev {
			t.Errorf("quantile not monotone: q=%g gave %g after %g", q, got, prev)
		}
		prev = got
	}

	// Nil-receiver safety, mirroring the other metric handles.
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %g", got)
	}
	if snap := nilH.Snapshot(); snap.Count != 0 || len(snap.Buckets) != 0 {
		t.Errorf("nil histogram snapshot = %+v", snap)
	}

	// Non-positive samples land in bucket 0 and report 0.
	var h4 Histogram
	h4.Observe(-5)
	h4.Observe(0)
	if got := h4.Quantile(0.5); got != 0 {
		t.Errorf("non-positive quantile = %g, want 0", got)
	}
}
