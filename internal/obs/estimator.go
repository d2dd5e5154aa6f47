// Deterministic drift estimators: fixed-point EWMA + one-sided Page/CUSUM
// change detection. Wilson confidence intervals for windowed rates come from
// rng.WilsonInterval.
//
// The stream pipeline (internal/stream) feeds these per finalized frame
// window, and the resulting drift events gate live calibration decisions —
// so their arithmetic must be reproducible: the same trace must yield the
// same events regardless of decode worker count, queue depth, or host
// floating-point quirks in accumulation order. Rates are therefore carried
// as integer fixed-point values (FPOne = one unit of rate) and every state
// update is integer addition and shifting; floats appear only at the edges
// (converting configuration in, formatting snapshots out), where each value
// is computed from integers by the same expression on every run.
package obs

import "math"

// FPShift and FPOne define the fixed-point rate representation: a rate r in
// [0, 1] is carried as the integer round(r * FPOne), giving ~1e-6 resolution
// — far below the shot noise of any realistic estimator window.
const (
	FPShift = 20
	FPOne   = int64(1) << FPShift
)

// ToFixed converts a float rate to fixed point (rounding to nearest).
func ToFixed(v float64) int64 { return int64(math.Round(v * float64(FPOne))) }

// FromFixed converts a fixed-point rate back to a float.
func FromFixed(v int64) float64 { return float64(v) / float64(FPOne) }

// RateConfig parameterizes a RateEstimator. The zero value is not useful;
// fill it once (e.g. stream.EstimatorConfig does) and share it across many
// estimators — Update takes the config by value so a detector array needs
// only one config and N bare RateEstimator values.
type RateConfig struct {
	// EWMAShift sets the smoothing factor alpha = 2^-EWMAShift of the
	// exponentially weighted moving average.
	EWMAShift uint
	// Warmup is the number of windows used to learn the baseline rate. The
	// CUSUM statistic stays disarmed until the warmup completes; the EWMA at
	// that point is frozen as the baseline.
	Warmup int
	// Slack is the Page/CUSUM allowance k (fixed point): per-window excess
	// below baseline+Slack does not accumulate. It absorbs shot noise;
	// choose it a few standard deviations of the windowed rate.
	Slack int64
	// Threshold is the CUSUM decision threshold h (fixed point): the
	// estimator trips when the accumulated excess reaches it. After a trip
	// the statistic restarts from zero (classic Page restart), so a
	// persistent shift re-trips every ~Threshold/drift windows.
	Threshold int64
}

// RateEstimator tracks one windowed rate series: an integer EWMA plus a
// one-sided (upward) Page/CUSUM statistic against a warmup-frozen baseline.
// The zero value is ready for use. Not safe for concurrent use; callers
// serialize updates (the stream monitor finalizes windows in order under
// one lock, which is also what makes the event sequence deterministic).
type RateEstimator struct {
	n        int64 // windows observed
	ewma     int64 // fixed-point smoothed rate
	baseline int64 // frozen EWMA after warmup
	cusum    int64 // accumulated positive excess
	trips    int64 // times the threshold was reached
	lastTrip int64 // 1-based window of the last trip (0 = never)
}

// Update feeds one windowed rate observation (fixed point) and reports
// whether the CUSUM statistic crossed the threshold on this window.
func (e *RateEstimator) Update(cfg RateConfig, rate int64) bool {
	e.n++
	if e.n == 1 {
		e.ewma = rate
	} else {
		e.ewma += (rate - e.ewma) >> cfg.EWMAShift
	}
	if e.n <= int64(cfg.Warmup) {
		e.baseline = e.ewma
		return false
	}
	e.cusum += rate - e.baseline - cfg.Slack
	if e.cusum < 0 {
		e.cusum = 0
	}
	if e.cusum >= cfg.Threshold {
		e.trips++
		e.lastTrip = e.n
		e.cusum = 0
		return true
	}
	return false
}

// Windows returns how many windows have been observed.
func (e *RateEstimator) Windows() int64 { return e.n }

// EWMA returns the current smoothed rate (fixed point).
func (e *RateEstimator) EWMA() int64 { return e.ewma }

// Baseline returns the warmup-frozen baseline rate (fixed point); while
// warming up it tracks the EWMA.
func (e *RateEstimator) Baseline() int64 { return e.baseline }

// Score returns the current CUSUM statistic (fixed point).
func (e *RateEstimator) Score() int64 { return e.cusum }

// Trips returns how many times the estimator has tripped.
func (e *RateEstimator) Trips() int64 { return e.trips }

// LastTrip returns the 1-based window index of the most recent trip, 0 if
// the estimator never tripped.
func (e *RateEstimator) LastTrip() int64 { return e.lastTrip }

// Snapshot returns the histogram's current contents (empty on nil), the
// same form Registry.Snapshot exports.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{Buckets: []HistogramBucket{}}
	}
	return h.snapshot()
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observed samples,
// linearly interpolated inside the covering log₂ bucket. With only bucket
// counts the true order statistic is unrecoverable; interpolation bounds the
// error by the bucket width (a factor of 2), which is what latency gating
// needs — budgets are set with far more headroom than that. Returns 0 when
// no samples were observed.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic to report: the
	// ceil(q*Count)-th smallest sample, at least the 1st.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		if cum+b.Count < rank {
			cum += b.Count
			continue
		}
		lower := bucketLower(b.Le)
		if b.Le <= lower {
			return float64(b.Le)
		}
		// Spread the bucket's samples evenly across [lower, Le] and read
		// off the rank's position; the -0.5 centers samples in their slots.
		frac := (float64(rank-cum) - 0.5) / float64(b.Count)
		if frac < 0 {
			frac = 0
		}
		return float64(lower) + frac*float64(b.Le-lower)
	}
	// Unreachable when Count equals the bucket sum; be defensive about
	// torn concurrent snapshots and report the largest known bound.
	if n := len(s.Buckets); n > 0 {
		return float64(s.Buckets[n-1].Le)
	}
	return 0
}

// Quantile is shorthand for h.Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// bucketLower returns the inclusive lower bound of the log₂ bucket whose
// inclusive upper bound is le.
func bucketLower(le int64) int64 {
	if le <= 1 {
		return le
	}
	return le/2 + 1
}
