package stream

import (
	"caliqec/internal/obs"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// EstimatorConfig configures the per-stream drift monitor the decode pool
// feeds. The zero value disables monitoring; setting Window (frames
// per estimator window) enables it with defaults for everything else.
//
// Determinism contract: with a fixed config, the same trace produces the
// same window sequence, the same estimator states, the same drift events in
// the same order, and a byte-identical HealthSnapshot JSON encoding — no
// matter how many decode workers raced over the frames. The monitor buckets
// frames by their stream position (additive integer counts, order-free
// within a window) and finalizes windows strictly in ascending order, so
// scheduling never reaches the estimators.
type EstimatorConfig struct {
	// Window is the estimator window in frames; <= 0 disables monitoring.
	Window int
	// EWMAShift sets the fire-rate smoothing alpha = 2^-EWMAShift; 0 selects 3.
	EWMAShift uint
	// Slack is the CUSUM allowance per window (rate units); 0 selects 0.01.
	Slack float64
	// Threshold is the CUSUM trip threshold (rate units); 0 selects 0.05.
	Threshold float64
	// BaselineWindows is how many initial windows learn the LER baseline and
	// warm up the fire-rate estimators; 0 selects 4.
	BaselineWindows int
	// LERZ is the z-score of the Wilson intervals used for LER drift
	// (baseline vs window separation); 0 selects 3 (~99.7%).
	LERZ float64
	// Stream names this stream in events, metrics and /health; "" selects
	// "replay". The server overrides it per connection.
	Stream string
	// Health, when non-nil, receives the monitor for /health serving.
	Health *HealthRegistry
	// Events, when non-nil, receives one JSON line per drift event.
	Events *obs.EventSink
}

func (c EstimatorConfig) resolved() EstimatorConfig {
	if c.EWMAShift == 0 {
		c.EWMAShift = 3
	}
	if c.Slack <= 0 {
		c.Slack = 0.01
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.05
	}
	if c.BaselineWindows <= 0 {
		c.BaselineWindows = 4
	}
	if c.LERZ <= 0 {
		c.LERZ = 3
	}
	if c.Stream == "" {
		c.Stream = "replay"
	}
	return c
}

// Drift event kinds and severities.
const (
	DriftFireRate = "fire-rate" // a detector's windowed fire rate tripped its CUSUM
	DriftLER      = "ler"       // a window's LER interval cleared the baseline interval

	SeverityWarn = "warn"
	SeverityCrit = "crit"
)

// DriftEvent is one structured drift observation, emitted as a JSON line
// through EstimatorConfig.Events and counted in Stats.DriftEvents. Detector,
// Qubit and Round are -1 when not applicable (LER events) or unknown (no
// qubit attribution in the decoding graph).
type DriftEvent struct {
	Stream   string  `json:"stream"`
	Kind     string  `json:"kind"`
	Severity string  `json:"severity"`
	Window   int64   `json:"window"` // 1-based finalized window index
	Detector int     `json:"detector"`
	Qubit    int     `json:"qubit"`
	Round    int     `json:"round"`
	Rate     float64 `json:"rate"`     // this window's rate (fire rate or LER)
	Baseline float64 `json:"baseline"` // frozen baseline rate
	EWMA     float64 `json:"ewma,omitempty"`
	// Wilson bounds, LER events only: the window's lower bound cleared the
	// baseline's upper bound.
	RateLo     float64 `json:"rate_lo,omitempty"`
	BaselineHi float64 `json:"baseline_hi,omitempty"`
}

// DriftingDetector is one flagged detector in a HealthSnapshot.
type DriftingDetector struct {
	Detector   int     `json:"detector"`
	Qubit      int     `json:"qubit"`
	Round      int     `json:"round"`
	Trips      int64   `json:"trips"`
	LastWindow int64   `json:"last_window"`
	EWMA       float64 `json:"ewma"`
	Baseline   float64 `json:"baseline"`
	Score      float64 `json:"score"`
}

// HealthSnapshot is one stream's health state as served by /health. Every
// float is derived from the monitor's integer state by a fixed expression,
// so identical traces produce byte-identical JSON encodings.
type HealthSnapshot struct {
	Stream        string `json:"stream"`
	WindowSize    int    `json:"window_size"`
	RoundsPerShot int    `json:"rounds_per_shot"`
	Frames        int64  `json:"frames"`
	Failures      int64  `json:"failures"`
	// Windows counts finalized estimator windows; PendingFrames are observed
	// frames not yet part of a finalized window.
	Windows       int64 `json:"windows"`
	PendingFrames int64 `json:"pending_frames"`

	LER         float64 `json:"ler"`
	LERLo       float64 `json:"ler_lo"`
	LERHi       float64 `json:"ler_hi"`
	BaselineLER float64 `json:"baseline_ler"`

	LastWindowFailures int64 `json:"last_window_failures"`

	FireRateEWMA   []float64          `json:"fire_rate_ewma"`
	Drifting       []DriftingDetector `json:"drifting"`
	DriftingQubits []int              `json:"drifting_qubits"`

	Events        int64 `json:"events"`
	DroppedEvents int64 `json:"dropped_events"`
}

// windowBucket accumulates one window's additive counts. Workers touch
// buckets in whatever order they drain the queue; only completed buckets
// reach the estimators, in window order. A finalized bucket is cleared and
// reused for a later window, so a stream allocates buckets only for the
// windows it holds open at once, not one per window.
type windowBucket struct {
	frames   int
	failures int
	fires    []int64 // per-detector fire count
}

// Monitor is one stream's drift monitor: per-detector fire-rate estimators
// (EWMA + Page/CUSUM over fixed-point integers) plus a windowed-LER check
// against a learned baseline, fed one claimed span of decoded frames at a
// time by the decode pool. Safe for concurrent use; all methods are no-ops
// on a nil receiver.
type Monitor struct {
	cfg     EstimatorConfig
	rateCfg obs.RateConfig
	numDet  int
	rounds  int
	detQ    []int // detector -> qubit, nil when unattributed
	detR    []int // detector -> round, nil when unlayered

	registry    *obs.Registry
	evTotal     *obs.Counter   // stream.drift.events
	evFire      *obs.Counter   // stream.drift.events.fire_rate
	evLER       *obs.Counter   // stream.drift.events.ler
	finalizeLat *obs.Histogram // stream.estimator.update.latency

	mu        sync.Mutex
	frames    int64
	failures  int64
	buckets   map[int64]*windowBucket
	free      []*windowBucket // finalized buckets, cleared for reuse
	next      int64           // lowest unfinalized window index
	finalized int64           // frames inside finalized windows (≤ frames)
	est       []obs.RateEstimator
	baseFail  int64 // LER baseline accumulators (frozen after BaselineWindows)
	baseN     int64
	lastFails int64 // failures in the most recently finalized window
	events    int64
	dropped   int64
}

// NewMonitor builds a monitor for one stream. Detector-to-qubit and
// detector-to-round attribution is pulled from scorer when it exposes the
// decoding graph's maps (as *mc.FrameDecoder does); otherwise drifting
// detectors report qubit and round -1. Metrics land in reg (nil selects
// obs.Default; obs.Discard disables them, including the estimator-update
// latency timing). Pool.Open constructs one per stream when
// Config.Estimator.Window > 0; construct directly only to feed frames
// outside the pool.
func NewMonitor(cfg EstimatorConfig, scorer FrameScorer, h Header, reg *obs.Registry) *Monitor {
	cfg = cfg.resolved()
	if reg == nil {
		reg = obs.Default
	}
	m := &Monitor{
		cfg:    cfg,
		numDet: h.NumDetectors,
		rounds: h.Rounds,
		rateCfg: obs.RateConfig{
			EWMAShift: cfg.EWMAShift,
			Warmup:    cfg.BaselineWindows,
			Slack:     obs.ToFixed(cfg.Slack),
			Threshold: obs.ToFixed(cfg.Threshold),
		},
		registry:    reg,
		evTotal:     reg.Counter("stream.drift.events"),
		evFire:      reg.Counter("stream.drift.events.fire_rate"),
		evLER:       reg.Counter("stream.drift.events.ler"),
		finalizeLat: reg.Histogram("stream.estimator.update.latency"),
		buckets:     map[int64]*windowBucket{},
		est:         make([]obs.RateEstimator, h.NumDetectors),
	}
	if qs, ok := scorer.(interface{ DetectorQubits() []int }); ok {
		if q := qs.DetectorQubits(); len(q) == m.numDet {
			m.detQ = q
		}
	}
	if rs, ok := scorer.(interface{ DetectorRounds() []int }); ok {
		if r := rs.DetectorRounds(); len(r) == m.numDet {
			m.detR = r
		}
	}
	if m.rounds == 0 {
		if nr, ok := scorer.(interface{ NumRounds() int }); ok {
			m.rounds = nr.NumRounds()
		}
	}
	return m
}

// Stream returns the monitor's stream name.
func (m *Monitor) Stream() string {
	if m == nil {
		return ""
	}
	return m.cfg.Stream
}

// Events returns how many drift events the monitor has generated (whether
// or not an event sink accepted them).
func (m *Monitor) Events() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// Observe feeds one decoded frame: idx is the frame's position in the
// stream (assigned by the reader, so it is scheduling-independent),
// syndrome the sorted fired detectors, failed the scorer's verdict. It is
// the one-frame case of ObserveSpan. Safe for concurrent use from many
// workers.
func (m *Monitor) Observe(idx int64, syndrome []int, failed bool) {
	m.ObserveSpan(idx, syndrome, []int{len(syndrome)}, []bool{failed})
}

// ObserveSpan feeds len(ends) decoded frames at the consecutive stream
// positions first, first+1, …, under one lock: frame i's sorted fired
// detectors are syndromes[ends[i-1]:ends[i]] (from 0 for i = 0) and
// failed[i] is its verdict. Spans may arrive in any order from many
// workers; the result equals feeding every frame through Observe.
func (m *Monitor) ObserveSpan(first int64, syndromes []int, ends []int, failed []bool) {
	if m == nil || m.cfg.Window <= 0 || first < 0 || len(ends) == 0 {
		return
	}
	window := int64(m.cfg.Window)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames += int64(len(ends))
	w := first / window
	b, edge := m.bucketLocked(w), (w+1)*window // edge: window w+1's first frame
	lo := 0
	filled := false
	for i, hi := range ends {
		if first+int64(i) == edge {
			w++
			b, edge = m.bucketLocked(w), edge+window
		}
		b.frames++
		filled = filled || b.frames == m.cfg.Window
		if failed[i] {
			m.failures++
			b.failures++
		}
		for _, d := range syndromes[lo:hi] {
			if d >= 0 && d < m.numDet {
				b.fires[d]++
			}
		}
		lo = hi
	}
	// Finalize every completed window in ascending order. Window next can
	// only have completed if this span filled a bucket. Windows beyond a
	// still-incomplete one wait in their buckets (the pool's bounded
	// stream queue bounds how many), preserving the deterministic event order.
	if !filled {
		return
	}
	for {
		nb := m.buckets[m.next]
		if nb == nil || nb.frames < m.cfg.Window {
			break
		}
		m.finalizeTimed(nb, window)
		m.recycleLocked(nb)
		m.finalized += window
	}
}

// bucketLocked returns window w's bucket, taking a cleared one from the
// free list (or allocating) when w has none yet. Called with mu held.
func (m *Monitor) bucketLocked(w int64) *windowBucket {
	b := m.buckets[w]
	if b == nil {
		if n := len(m.free); n > 0 {
			b, m.free = m.free[n-1], m.free[:n-1]
		} else {
			b = &windowBucket{fires: make([]int64, m.numDet)}
		}
		m.buckets[w] = b
	}
	return b
}

// recycleLocked retires the just-finalized bucket of window next: it clears
// the bucket onto the free list for a later window and advances next.
// Called with mu held.
func (m *Monitor) recycleLocked(b *windowBucket) {
	delete(m.buckets, m.next)
	m.next++
	b.frames, b.failures = 0, 0
	clear(b.fires)
	m.free = append(m.free, b)
}

// Finalize flushes the monitor's pending partial windows: every bucket still
// waiting for frames is finalized with its actual frame count as the rate
// denominator, in ascending window order. Call it once the stream has ended
// (Stream.Close does, after the pool drains the stream) so drift in a final
// partial window still produces events and the health snapshot reflects
// every observed frame; without it, up to Window-1 trailing frames would
// never reach the estimators. Further Observe calls after Finalize open new
// windows past the flushed ones. No-op on nil or when monitoring is
// disabled.
func (m *Monitor) Finalize() {
	if m == nil || m.cfg.Window <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Frame indices are dense, so pending windows are contiguous from next.
	for {
		nb := m.buckets[m.next]
		if nb == nil {
			break
		}
		n := int64(nb.frames)
		m.finalizeTimed(nb, n)
		m.recycleLocked(nb)
		m.finalized += n
	}
	// The stream has ended, but its monitor stays registered for /health:
	// drop the reusable buckets rather than keep them for windows that will
	// not come.
	m.free = nil
}

// finalizeTimed wraps finalizeWindow with the estimator-latency histogram.
// Called with mu held.
func (m *Monitor) finalizeTimed(b *windowBucket, wsize int64) {
	if m.finalizeLat != nil {
		start := m.registry.Now()
		m.finalizeWindow(b, wsize)
		m.finalizeLat.Observe(m.registry.Now().Sub(start).Nanoseconds())
	} else {
		m.finalizeWindow(b, wsize)
	}
}

// finalizeWindow runs the estimator updates for one window and emits drift
// events. wsize is the rate denominator: the configured window for complete
// buckets, the actual frame count for a Finalize-flushed partial one.
// Called with mu held, strictly in window order.
func (m *Monitor) finalizeWindow(b *windowBucket, wsize int64) {
	window := m.next + 1 // 1-based in events, matching RateEstimator.LastTrip
	m.lastFails = int64(b.failures)

	for d := range m.est {
		rate := (b.fires[d] << obs.FPShift) / wsize
		if !m.est[d].Update(m.rateCfg, rate) {
			continue
		}
		e := &m.est[d]
		sev := SeverityWarn
		if rate-e.Baseline()-m.rateCfg.Slack >= 2*m.rateCfg.Threshold {
			sev = SeverityCrit
		}
		m.emit(DriftEvent{
			Stream:   m.cfg.Stream,
			Kind:     DriftFireRate,
			Severity: sev,
			Window:   window,
			Detector: d,
			Qubit:    m.detectorQubit(d),
			Round:    m.detectorRound(d),
			Rate:     obs.FromFixed(rate),
			Baseline: obs.FromFixed(e.Baseline()),
			EWMA:     obs.FromFixed(e.EWMA()),
		}, m.evFire)
	}

	if m.next < int64(m.cfg.BaselineWindows) {
		// Still learning the LER baseline.
		m.baseFail += int64(b.failures)
		m.baseN += wsize
	} else {
		_, baseHi := obs.Wilson(m.baseFail, m.baseN, m.cfg.LERZ)
		wLo, _ := obs.Wilson(int64(b.failures), wsize, m.cfg.LERZ)
		if wLo > baseHi {
			sev := SeverityWarn
			if wLo > 2*baseHi {
				sev = SeverityCrit
			}
			m.emit(DriftEvent{
				Stream:     m.cfg.Stream,
				Kind:       DriftLER,
				Severity:   sev,
				Window:     window,
				Detector:   -1,
				Qubit:      -1,
				Round:      -1,
				Rate:       float64(b.failures) / float64(wsize),
				Baseline:   float64(m.baseFail) / float64(m.baseN),
				RateLo:     wLo,
				BaselineHi: baseHi,
			}, m.evLER)
		}
	}
}

// emit records one drift event: counters, then the sink (non-blocking; a
// full or absent sink only affects delivery, never the counts or the
// estimator state). Called with mu held.
func (m *Monitor) emit(ev DriftEvent, kind *obs.Counter) {
	m.events++
	m.evTotal.Inc()
	kind.Inc()
	if m.cfg.Events != nil && !m.cfg.Events.Emit(ev) {
		m.dropped++
	}
}

func (m *Monitor) detectorQubit(d int) int {
	if d < 0 || d >= len(m.detQ) {
		return -1
	}
	return m.detQ[d]
}

func (m *Monitor) detectorRound(d int) int {
	if d < 0 || d >= len(m.detR) {
		return -1
	}
	return m.detR[d]
}

// driftingQubitsLocked returns the sorted distinct qubits behind tripped
// detectors (unattributed detectors excluded). Called with mu held.
func (m *Monitor) driftingQubitsLocked() []int {
	seen := map[int]bool{}
	for d := range m.est {
		if m.est[d].Trips() > 0 {
			if q := m.detectorQubit(d); q >= 0 {
				seen[q] = true
			}
		}
	}
	qs := make([]int, 0, len(seen))
	for q := range seen {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	return qs
}

// Snapshot returns the stream's current health. Deterministic: identical
// observation sequences produce identical snapshots, byte-for-byte under
// encoding/json.
func (m *Monitor) Snapshot() HealthSnapshot {
	if m == nil {
		return HealthSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := HealthSnapshot{
		Stream:             m.cfg.Stream,
		WindowSize:         m.cfg.Window,
		RoundsPerShot:      m.rounds,
		Frames:             m.frames,
		Failures:           m.failures,
		Windows:            m.next,
		PendingFrames:      m.frames - m.finalized,
		LastWindowFailures: m.lastFails,
		FireRateEWMA:       make([]float64, m.numDet),
		Drifting:           []DriftingDetector{},
		DriftingQubits:     m.driftingQubitsLocked(),
		Events:             m.events,
		DroppedEvents:      m.dropped,
	}
	if m.frames > 0 {
		s.LER = float64(m.failures) / float64(m.frames)
		s.LERLo, s.LERHi = obs.Wilson(m.failures, m.frames, m.cfg.LERZ)
	}
	if m.baseN > 0 {
		s.BaselineLER = float64(m.baseFail) / float64(m.baseN)
	}
	for d := range m.est {
		e := &m.est[d]
		s.FireRateEWMA[d] = obs.FromFixed(e.EWMA())
		if e.Trips() > 0 {
			s.Drifting = append(s.Drifting, DriftingDetector{
				Detector:   d,
				Qubit:      m.detectorQubit(d),
				Round:      m.detectorRound(d),
				Trips:      e.Trips(),
				LastWindow: e.LastTrip(),
				EWMA:       obs.FromFixed(e.EWMA()),
				Baseline:   obs.FromFixed(e.Baseline()),
				Score:      obs.FromFixed(e.Score()),
			})
		}
	}
	return s
}

// HealthRegistry aggregates the monitors of live (and recently finished)
// streams and serves them over HTTP. Monitors stay registered after their
// stream completes — /health reports final state — until replaced by a
// same-named stream or removed with Unregister. Safe for concurrent use;
// methods are no-ops on a nil receiver.
type HealthRegistry struct {
	mu   sync.RWMutex
	mons map[string]*Monitor
}

// NewHealthRegistry returns an empty registry.
func NewHealthRegistry() *HealthRegistry {
	return &HealthRegistry{mons: map[string]*Monitor{}}
}

// Register adds m under its stream name, replacing any previous monitor of
// that name.
func (h *HealthRegistry) Register(m *Monitor) {
	if h == nil || m == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mons[m.Stream()] = m
}

// Unregister removes the named stream's monitor.
func (h *HealthRegistry) Unregister(stream string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.mons, stream)
}

// Get returns the named stream's monitor, nil if absent.
func (h *HealthRegistry) Get(stream string) *Monitor {
	if h == nil {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.mons[stream]
}

// Streams returns the registered stream names, sorted.
func (h *HealthRegistry) Streams() []string {
	if h == nil {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	names := make([]string, 0, len(h.mons))
	for n := range h.mons {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// healthReport is the /health response body.
type healthReport struct {
	Streams []HealthSnapshot `json:"streams"`
}

// Handler serves the registry as JSON:
//
//	GET /health             — every stream's snapshot, sorted by stream name
//	GET /health/stream/<id> — one stream's snapshot, 404 when unknown
//
// Mount it at the server root (it routes on the full path), typically next
// to the obs registry's /metrics handler.
func (h *HealthRegistry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/health":
			rep := healthReport{Streams: []HealthSnapshot{}}
			for _, name := range h.Streams() {
				if m := h.Get(name); m != nil {
					rep.Streams = append(rep.Streams, m.Snapshot())
				}
			}
			writeHealthJSON(w, rep)
		case strings.HasPrefix(r.URL.Path, "/health/stream/"):
			name := strings.TrimPrefix(r.URL.Path, "/health/stream/")
			m := h.Get(name)
			if m == nil {
				http.Error(w, "unknown stream "+name, http.StatusNotFound)
				return
			}
			writeHealthJSON(w, m.Snapshot())
		default:
			http.NotFound(w, r)
		}
	})
}

func writeHealthJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
