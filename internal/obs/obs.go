// Package obs is the repository's stdlib-only observability layer: atomic
// metrics (counters, gauges, log₂-bucketed histograms) collected in a
// Registry, plus lightweight context-propagated spans exported as Chrome
// trace-event JSON (trace.go).
//
// The paper's claims are quantitative — LER(d,p) scaling, space-time cost
// Δd×T(Cal), retry risk under drift — and the engines that produce them
// (internal/mc, internal/runtime, internal/deform) run millions of shots
// behind a single return value. This package makes those runs observable:
// shot throughput, cache behaviour, per-chunk decode latency and
// calibration-session timelines all surface as named metrics and spans
// that cmd/caliqec and cmd/repro can dump to files or serve over HTTP.
//
// Contracts:
//
//   - Instrumentation never reads the wall clock directly in library code.
//     Every timestamp flows through an injected Clock (the `timenow` lint
//     rule enforces this repo-wide); the package's single sanctioned
//     time.Now reference below is the default a nil Clock falls back to,
//     mirroring internal/exp's wallClock.
//   - Metric updates are lock-free atomics, cheap enough for the mc
//     engine's chunk loop; handle lookup (Registry.Counter etc.) takes a
//     mutex and is meant to happen once per evaluation, not per shot.
//   - Metric names are dotted paths ("mc.decode.latency"), the same flat
//     naming expvar uses, and Snapshot/WriteJSON export a flat
//     {name: value} JSON object so the output drops into any expvar-style
//     consumer.
//   - Instrumentation must never change results: metrics are write-only
//     from the instrumented code's point of view, and the Discard registry
//     turns every update into a no-op for overhead measurements
//     (BenchmarkObsOverhead keeps the delta below 5%).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is an injected time source. A nil Clock means the process wall
// clock; tests inject fakes for deterministic latency histograms and trace
// timestamps.
type Clock func() time.Time

// wallClock is the package's single sanctioned wall-clock source, the
// fallback behind a nil Clock. Library code never calls time.Now
// elsewhere; tests swap deterministic fakes in via NewRegistry/NewTracer.
var wallClock Clock = time.Now //lint:allow timenow single injected wall-clock fallback for the observability layer

// Registry is a named collection of counters, gauges and histograms.
// Handles returned by Counter/Gauge/Histogram are stable for the life of
// the registry and safe for concurrent use; lookups of the same name
// return the same handle.
//
// The zero value is not usable; construct with NewRegistry. The package
// Default registry is shared process-wide, and Discard swallows every
// update (its handle getters return nil, and all metric methods are
// nil-receiver no-ops).
type Registry struct {
	clock   Clock
	discard bool

	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	histogram map[string]*Histogram
}

// NewRegistry returns an empty registry reading time from clock (nil means
// the process wall clock).
func NewRegistry(clock Clock) *Registry {
	return &Registry{
		clock:     clock,
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		histogram: map[string]*Histogram{},
	}
}

// Default is the process-wide registry: library instrumentation (mc,
// runtime, deform) records here unless explicitly given another registry,
// so one --metrics dump sees the whole run.
var Default = NewRegistry(nil)

// Discard is a registry whose handles are nil and whose updates are
// no-ops: instrumented code runs uninstrumented. Used as the baseline of
// overhead measurements.
var Discard = &Registry{discard: true}

// Now reads the registry's clock. A nil or discarding registry returns the
// zero time (callers pairing Now with a nil Histogram skip timing
// entirely).
func (r *Registry) Now() time.Time {
	if r == nil || r.discard {
		return time.Time{}
	}
	if r.clock == nil {
		return wallClock()
	}
	return r.clock()
}

// Counter returns the named monotonic counter, creating it on first use.
// Returns nil (a valid no-op handle) on a nil or Discard registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil || r.discard {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named float gauge, creating it on first use. Returns
// nil (a valid no-op handle) on a nil or Discard registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil || r.discard {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named log₂-bucketed histogram, creating it on
// first use. Returns nil (a valid no-op handle) on a nil or Discard
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil || r.discard {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histogram[name]
	if !ok {
		h = &Histogram{}
		r.histogram[name] = h
	}
	return h
}

// Counter is a monotonic int64 counter. All methods are safe on a nil
// receiver (no-ops), so code instrumented against a Discard registry pays
// only a nil check.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 last-value gauge (atomically stored bits). Methods
// are nil-receiver no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the current value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log₂ buckets: bucket b holds values v with
// bits.Len64(v) == b, i.e. v ∈ [2^(b-1), 2^b−1], with bucket 0 collecting
// v ≤ 0. Positive int64 samples occupy buckets 1..63 (bits.Len64 of
// MaxInt64 is 63), so 0..63 covers the full range.
const histBuckets = 64

// Histogram is a log₂-bucketed histogram of int64 samples (typically
// latencies in nanoseconds): bucket b counts samples in [2^(b-1), 2^b−1],
// bucket 0 counts non-positive samples. Observe is a few atomic adds, so
// it is safe in hot loops; methods are nil-receiver no-ops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket b (0 for bucket
// 0, 2^b−1 otherwise; the top bucket's bound saturates at MaxInt64).
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(b) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records n samples whose mean is total/n, for a caller that times
// n items with one clock pair: the mean's bucket and Count each advance by
// n, and Sum by total, so Count still counts items and Sum/Count is still
// their exact mean. The buckets then describe group means, not single
// items. n <= 0 records nothing.
func (h *Histogram) ObserveN(total, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.buckets[bucketOf(total/n)].Add(n)
	h.count.Add(n)
	h.sum.Add(total)
}

// Count returns the number of samples observed (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count in bucket b (0 on nil or out of range).
func (h *Histogram) Bucket(b int) int64 {
	if h == nil || b < 0 || b >= histBuckets {
		return 0
	}
	return h.buckets[b].Load()
}

// HistogramSnapshot is the exported form of a histogram: total count, sum,
// and the non-empty buckets keyed by inclusive upper bound.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets"`
}

// HistogramBucket is one non-empty log₂ bucket.
type HistogramBucket struct {
	Le    int64 `json:"le"` // inclusive upper bound (2^b − 1)
	Count int64 `json:"count"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Buckets: []HistogramBucket{}}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: BucketUpper(b), Count: n})
		}
	}
	return s
}

// Snapshot returns the registry's current contents as a flat
// name → value map (counters as int64, gauges as float64, histograms as
// HistogramSnapshot), the expvar-style shape WriteJSON serializes.
// Individual reads are atomic; the map is a consistent-enough view for
// export (concurrent writers may land between reads, as with expvar).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil || r.discard {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histogram {
		out[name] = h.snapshot()
	}
	return out
}

// WriteJSON writes the snapshot as a flat JSON object with keys in sorted
// order (deterministic output for goldens and diffs).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		key, err := json.Marshal(name)
		if err != nil {
			return err
		}
		val, err := json.Marshal(snap[name])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s  %s: %s", sep, key, val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// Handler serves the registry snapshot as JSON (the --debug-addr /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
