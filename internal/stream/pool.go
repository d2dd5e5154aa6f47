package stream

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"caliqec/internal/obs"
)

// Backpressure selects what a Pool does with a frame offered to a stream
// whose queue is full.
type Backpressure int

const (
	// Block makes Offer wait for room, so a connection reader stops reading
	// its socket and TCP flow control stalls the sender. Queued and
	// in-flight frames count against Config.StreamQueue: a reader runs at
	// most that many frames ahead of the decoders.
	Block Backpressure = iota
	// Shed makes Offer drop and count the frame, so the read loop never
	// stalls the socket; the summary's Shed and Overload report the loss.
	// Only queued frames count against Config.StreamQueue.
	Shed
)

func (b Backpressure) String() string {
	if b == Shed {
		return "Shed"
	}
	return "Block"
}

// TenantConfig sets one tenant's admission and scheduling parameters.
type TenantConfig struct {
	// Weight is the tenant's deficit-round-robin share; <= 0 selects 1. A
	// weight-3 tenant earns 3× the decode credits of a weight-1 tenant per
	// scheduler round when both have work queued.
	Weight int
	// FrameRate is the tenant's admitted-frame budget in frames/second
	// (token-bucket refill rate); <= 0 means unmetered.
	FrameRate float64
	// Burst is the token bucket's capacity in frames; <= 0 selects
	// max(1, FrameRate) — one second of credit.
	Burst float64
	// MaxStreams caps the tenant's concurrently open streams; <= 0 means
	// uncapped. A stream over the cap is refused at open (overload summary)
	// rather than queued.
	MaxStreams int
}

func (c TenantConfig) resolved() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Burst <= 0 {
		c.Burst = c.FrameRate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// Config configures a Pool (and the Server wrapping one).
type Config struct {
	// Workers is the shared decode pool size; <= 0 selects GOMAXPROCS. This
	// is the whole pool's decode concurrency, shared by every stream.
	Workers int
	// StreamQueue bounds each stream's queue; <= 0 selects 256.
	// Backpressure decides what a full queue does.
	StreamQueue int
	// Quantum is the deficit-round-robin quantum in frames; <= 0 selects 64.
	// Each scheduler visit grants a tenant Quantum×Weight decode credits.
	Quantum int
	// Backpressure selects what Offer does when a stream's queue is full:
	// Block (the zero value) waits, Shed drops and counts the frame.
	Backpressure Backpressure
	// Default is the tenant configuration for tenants absent from Tenants
	// (including tenant 0, the default tenant).
	Default TenantConfig
	// Tenants overrides Default per tenant ID.
	Tenants map[uint32]TenantConfig
	// Metrics selects the registry pool metrics land in; nil selects
	// obs.Default, obs.Discard disables them.
	Metrics *obs.Registry
	// Estimator enables per-stream drift monitoring (Monitor) when
	// Window > 0, registering each stream in Estimator.Health under the
	// name it was opened with.
	Estimator EstimatorConfig
	// Now is the token-bucket clock; nil selects the wall clock. Tests
	// inject a fake to make admission deterministic.
	Now func() time.Time
}

// wallClock is the package's single injected wall-clock fallback, feeding
// only token-bucket refill (never decode results).
var wallClock = time.Now //lint:allow timenow single injected wall-clock source for token-bucket admission

// positiveOr returns v when it is positive, else def.
func positiveOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// tokenBucket meters a tenant's admitted frames. Guarded by the pool mutex.
type tokenBucket struct {
	rate   float64 // tokens/second; <= 0 disables metering
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes one token, refilling from the time elapsed since the last
// call. A bucket starts full, so a tenant's first Burst frames always
// admit. The clock is read only when the bucket meters.
func (b *tokenBucket) take(clock func() time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	now := clock()
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// frame is one admitted frame's scheduling record; its packed detector
// bytes live in the frameRing slab slot of the same index. idx is the
// stream's dense admitted-frame index (shed frames consume none), which
// keys the drift monitor's windows scheduling-independently.
type frame struct {
	idx int64
	obs uint64
}

// frameRing is a stream's FIFO of admitted frames: a circular buffer whose
// length is a power of two, doubled on demand, with each slot's packed
// bytes at slab[slot×fbytes:] in a byte slab the ring owns. Admission
// never queues more than the pool's StreamQueue frames, so a stream that
// stays backlogged for any number of frames reuses its slots, and the
// buffer never exceeds max(8, 2×StreamQueue) entries nor the slab that
// many frames of bytes.
type frameRing struct {
	buf    []frame
	slab   []byte
	fbytes int // packed bytes per frame, fixed when the stream opens
	head   int
	n      int
}

// push appends f with a copy of its packed bytes (zero-padded to fbytes),
// growing the ring when every slot is taken. Growth relays the queued
// frames into the new buffer and slab in FIFO order.
func (r *frameRing) push(f frame, packed []byte) {
	if r.n == len(r.buf) {
		n, size := r.n, max(8, 2*r.n)
		buf, slab := r.pop(make([]frame, 0, size), make([]byte, 0, size*r.fbytes), n)
		r.buf, r.slab, r.head, r.n = buf[:size], slab[:size*r.fbytes], 0, n
	}
	i := (r.head + r.n) & (len(r.buf) - 1)
	r.buf[i] = f
	slot := r.slab[i*r.fbytes : (i+1)*r.fbytes]
	clear(slot[copy(slot, packed):])
	r.n++
}

// pop appends the n oldest frames to dst and their packed bytes to packed,
// fbytes per frame, and removes them from the ring.
func (r *frameRing) pop(dst []frame, packed []byte, n int) ([]frame, []byte) {
	// The n oldest slots run from head to the end of the buffer, then wrap
	// to its start at most once.
	k := min(n, len(r.buf)-r.head)
	dst = append(dst, r.buf[r.head:r.head+k]...)
	dst = append(dst, r.buf[:n-k]...)
	packed = append(packed, r.slab[r.head*r.fbytes:(r.head+k)*r.fbytes]...)
	packed = append(packed, r.slab[:(n-k)*r.fbytes]...)
	r.head = (r.head + n) & (len(r.buf) - 1)
	r.n -= n
	return dst, packed
}

// tenant is one tenant's scheduler state. All fields except the metric
// handles are guarded by the pool mutex.
type tenant struct {
	cfg    TenantConfig
	bucket tokenBucket

	deficit  int       // DRR credit, in frames
	runnable []*Stream // FIFO of streams with queued frames; see dropHead
	queued   int       // total queued frames across runnable streams
	open     int       // concurrently open streams (MaxStreams accounting)
	inRing   bool

	admitted *obs.Counter   // fleet.tenant.<id>.admitted
	shed     *obs.Counter   // fleet.tenant.<id>.shed
	depth    *obs.Gauge     // fleet.tenant.<id>.queue.depth
	latency  *obs.Histogram // fleet.tenant.<id>.decode.latency
}

// dropHead removes the head of the runnable FIFO by shifting the rest
// down in place. Reslicing past the head instead would leave the removed
// stream in the backing array, pinning it and its queue after it drained,
// and would force a reallocation every time the FIFO emptied and refilled.
func (t *tenant) dropHead() {
	n := copy(t.runnable, t.runnable[1:])
	t.runnable[n] = nil
	t.runnable = t.runnable[:n]
}

// Pool is the decode executor: a fixed set of workers claiming spans of
// queued frames from all open streams under deficit-round-robin across
// tenants (the mc.EvaluateBatch span-granular scheduler shape, with
// tenants in place of specs). Replay runs one stream on a private pool;
// Server runs every connection through one shared pool. Safe for
// concurrent use.
type Pool struct {
	cfg      Config
	nworkers int
	queueCap int
	quantum  int
	now      func() time.Time
	reg      *obs.Registry

	latency   *obs.Histogram // fleet.decode.latency
	occupancy *obs.Gauge     // fleet.pool.occupancy
	openG     *obs.Gauge     // fleet.streams.open
	rejectedC *obs.Counter   // fleet.streams.rejected
	failures  *obs.Counter   // stream.failures: logical failures scored
	truncated *obs.Counter   // stream.truncated: streams that ended mid-frame

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	tenants map[uint32]*tenant
	ring    []*tenant // tenants with queued frames, DRR order
	cursor  int       // ring position of the next tenant to serve
	busy    int
	openN   int

	wg sync.WaitGroup
}

// NewPool starts the worker pool. The caller must Close it to drain queued
// frames and join the workers.
func NewPool(cfg Config) *Pool {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	now := cfg.Now
	if now == nil {
		now = wallClock
	}
	p := &Pool{
		cfg:       cfg,
		nworkers:  positiveOr(cfg.Workers, runtime.GOMAXPROCS(0)),
		queueCap:  positiveOr(cfg.StreamQueue, 256),
		quantum:   positiveOr(cfg.Quantum, 64),
		now:       now,
		reg:       reg,
		latency:   reg.Histogram("fleet.decode.latency"),
		occupancy: reg.Gauge("fleet.pool.occupancy"),
		openG:     reg.Gauge("fleet.streams.open"),
		rejectedC: reg.Counter("fleet.streams.rejected"),
		failures:  reg.Counter("stream.failures"),
		truncated: reg.Counter("stream.truncated"),
		tenants:   map[uint32]*tenant{},
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < p.nworkers; i++ {
		p.wg.Add(1)
		go func() { //lint:allow bareloop the pool owns its workers; Close() drains every stream queue and joins them
			defer p.wg.Done()
			p.worker()
		}()
	}
	return p
}

// Workers returns the pool's decode concurrency.
func (p *Pool) Workers() int { return p.nworkers }

// getTenantLocked lazily materializes a tenant's scheduler state and metric
// handles. Called with mu held.
func (p *Pool) getTenantLocked(id uint32) *tenant {
	t := p.tenants[id]
	if t == nil {
		cfg, ok := p.cfg.Tenants[id]
		if !ok {
			cfg = p.cfg.Default
		}
		cfg = cfg.resolved()
		t = &tenant{cfg: cfg, bucket: tokenBucket{rate: cfg.FrameRate, burst: cfg.Burst}}
		pre := fmt.Sprintf("fleet.tenant.%d.", id)
		t.admitted = p.reg.Counter(pre + "admitted")
		t.shed = p.reg.Counter(pre + "shed")
		t.depth = p.reg.Gauge(pre + "queue.depth")
		t.latency = p.reg.Histogram(pre + "decode.latency")
		p.tenants[id] = t
	}
	return t
}

// Open admits a new stream for h.Tenant, decoding its frames with scorer.
// It never blocks: a tenant at its MaxStreams cap is refused with an error
// wrapping ErrOverload. name labels the stream's drift monitor in the
// health registry when monitoring is configured.
func (p *Pool) Open(h Header, scorer FrameScorer, name string) (*Stream, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: pool closed", ErrOverload)
	}
	t := p.getTenantLocked(h.Tenant)
	if t.cfg.MaxStreams > 0 && t.open >= t.cfg.MaxStreams {
		p.mu.Unlock()
		p.rejectedC.Inc()
		return nil, fmt.Errorf("%w: tenant %d at its %d-stream cap", ErrOverload, h.Tenant, t.cfg.MaxStreams)
	}
	t.open++
	p.openN++
	p.openG.Set(float64(p.openN))
	p.mu.Unlock()

	s := &Stream{p: p, t: t, scorer: scorer, done: make(chan struct{})}
	s.space.L = &p.mu
	s.queue.fbytes = FrameBytes(h.NumDetectors)
	if p.cfg.Estimator.Window > 0 {
		cfg := p.cfg.Estimator
		cfg.Stream = name
		s.mon = NewMonitor(cfg, scorer, h, p.reg)
		cfg.Health.Register(s.mon)
	}
	return s, nil
}

// Close stops admission, lets the workers drain every queued frame, and
// joins them. Streams still waiting on Done are completed by the drain,
// and an Offer blocked on a full queue sheds once a span of its stream
// has decoded.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker claims and decodes spans until the pool closes and drains. The
// span's frames and packed bytes land in scratch the worker owns and
// reuses, so decoding allocates nothing once the scratch has grown.
func (p *Pool) worker() {
	var syn []int
	var span []frame
	var packed []byte
	for {
		var st *Stream
		st, span, packed = p.claim(span, packed)
		if st == nil {
			return
		}
		fb := st.queue.fbytes
		failures := 0
		for i := range span {
			f := &span[i]
			fr := Frame{Obs: f.obs, Packed: packed[i*fb : (i+1)*fb]}
			syn = fr.Syndrome(syn[:0])
			var failed bool
			if p.latency != nil {
				start := p.reg.Now()
				failed = st.scorer.ScoreFrame(syn, f.obs)
				ns := p.reg.Now().Sub(start).Nanoseconds()
				p.latency.Observe(ns)
				st.t.latency.Observe(ns)
			} else {
				failed = st.scorer.ScoreFrame(syn, f.obs)
			}
			if failed {
				failures++
			}
			st.mon.Observe(f.idx, syn, failed)
		}
		p.complete(st, len(span), failures)
	}
}

// claim blocks until a span is available (returning its frames and packed
// bytes in the backing arrays of span and packed) or the pool is closed and
// fully drained (returning a nil stream).
func (p *Pool) claim(span []frame, packed []byte) (*Stream, []frame, []byte) {
	p.mu.Lock()
	for {
		if st, sp, pk := p.claimLocked(span, packed); st != nil {
			p.busy++
			p.occupancy.Set(float64(p.busy) / float64(p.nworkers))
			depth := st.t.queued
			p.mu.Unlock()
			st.t.depth.Set(float64(depth))
			return st, sp, pk
		}
		if p.closed {
			p.mu.Unlock()
			return nil, span, packed
		}
		p.cond.Wait()
	}
}

// claimLocked implements the deficit-round-robin claim: the cursor tenant
// earns quantum×weight credits when out, then surrenders up to its credit
// in consecutive frames from its head stream (copied, packed bytes
// included, into the backing arrays of span and packed, so the ring slots
// are free for new frames while the span decodes). A tenant whose queues
// empty leaves the ring and forfeits leftover credit, so an idle tenant
// never banks a burst. Called with mu held.
func (p *Pool) claimLocked(span []frame, packed []byte) (*Stream, []frame, []byte) {
	if len(p.ring) == 0 {
		return nil, span, packed
	}
	if p.cursor >= len(p.ring) {
		p.cursor = 0
	}
	t := p.ring[p.cursor]
	if t.deficit <= 0 {
		t.deficit += p.quantum * t.cfg.Weight
	}
	s := t.runnable[0]
	n := min(s.queue.n, t.deficit)
	span, packed = s.queue.pop(span[:0], packed[:0], n)
	s.inflight += n
	t.deficit -= n
	t.queued -= n
	if s.queue.n == 0 {
		s.runnable = false
		t.dropHead()
	} else if len(t.runnable) > 1 {
		// Partial drain with siblings waiting: rotate to the back so the
		// tenant's own streams share its credit round-robin.
		t.dropHead()
		t.runnable = append(t.runnable, s)
	}
	switch {
	case t.queued == 0:
		t.deficit = 0
		t.inRing = false
		p.ring = append(p.ring[:p.cursor], p.ring[p.cursor+1:]...)
	case t.deficit <= 0:
		p.cursor++
	}
	return s, span, packed
}

// complete commits one decoded span's accounting, wakes the stream's
// producer if it waits for room, and closes the stream's Done channel when
// it was the last outstanding work of a half-closed stream.
func (p *Pool) complete(st *Stream, n, failures int) {
	p.mu.Lock()
	st.inflight -= n
	st.failures += int64(failures)
	done := st.drainedLocked()
	p.busy--
	p.occupancy.Set(float64(p.busy) / float64(p.nworkers))
	st.space.Signal()
	p.mu.Unlock()
	if done {
		close(st.done)
	}
}

// Stream is one admitted stream's handle into the pool. Offer, CloseSend,
// Done, Stats and Close are safe for concurrent use with the pool's
// workers; Offer itself is single-producer (one reader per stream).
type Stream struct {
	p      *Pool
	t      *tenant
	scorer FrameScorer
	mon    *Monitor

	done  chan struct{}
	space sync.Cond // signalled when decoded frames leave the stream; L is p.mu

	// guarded by p.mu
	queue      frameRing
	inflight   int
	eof        bool
	released   bool
	runnable   bool
	doneClosed bool
	nextIdx    int64
	admitted   int64
	shed       int64
	failures   int64
}

// fullLocked reports whether the stream's queue is at its bound: queued
// plus in-flight frames under Block, queued frames under Shed. Called with
// p.mu held.
func (s *Stream) fullLocked() bool {
	n := s.queue.n
	if s.p.cfg.Backpressure == Block {
		n += s.inflight
	}
	return n >= s.p.queueCap
}

// Offer submits one frame and reports whether it was admitted. A frame is
// shed (false, counted) when the tenant's token bucket is empty, the
// stream is half-closed, or the pool has shut down. On a full queue a Shed
// pool sheds at once; a Block pool waits for room, and sheds only if the
// stream is half-closed (CloseSend from another goroutine cancels the
// wait) or the pool closes first. packed holds the stream's
// FrameBytes(h.NumDetectors) bytes; it is copied into the stream's queue,
// so the caller keeps ownership.
func (s *Stream) Offer(packed []byte, obsMask uint64) bool {
	p := s.p
	p.mu.Lock()
	for p.cfg.Backpressure == Block && s.fullLocked() && !s.eof && !p.closed {
		s.space.Wait()
	}
	if s.eof || p.closed || s.fullLocked() || !s.t.bucket.take(p.now) {
		s.shed++
		p.mu.Unlock()
		s.t.shed.Inc()
		return false
	}
	s.queue.push(frame{idx: s.nextIdx, obs: obsMask}, packed)
	s.nextIdx++
	s.admitted++
	s.t.queued++
	depth := s.t.queued
	if !s.runnable {
		s.runnable = true
		s.t.runnable = append(s.t.runnable, s)
		if !s.t.inRing {
			s.t.inRing = true
			p.ring = append(p.ring, s.t)
		}
	}
	p.mu.Unlock()
	s.t.admitted.Inc()
	s.t.depth.Set(float64(depth))
	p.cond.Signal()
	return true
}

// CloseSend marks end-of-stream: further Offers shed, and one blocked on a
// full queue returns. Queued and in-flight frames still decode; Done
// closes once they have.
func (s *Stream) CloseSend() {
	p := s.p
	p.mu.Lock()
	if s.eof {
		p.mu.Unlock()
		return
	}
	s.eof = true
	s.space.Signal()
	done := s.drainedLocked()
	p.mu.Unlock()
	if done {
		close(s.done)
	}
}

// drainedLocked reports, exactly once, that a half-closed stream has no
// queued or in-flight frames left, so the caller must close Done. Called
// with p.mu held.
func (s *Stream) drainedLocked() bool {
	if !s.eof || s.doneClosed || s.inflight > 0 || s.queue.n > 0 {
		return false
	}
	s.doneClosed = true
	return true
}

// Done closes when every admitted frame has been decoded after CloseSend.
// The wait is bounded: at most StreamQueue queued frames plus the
// in-flight spans remain at half-close.
func (s *Stream) Done() <-chan struct{} { return s.done }

// StreamStats is one stream's final (or live) accounting.
type StreamStats struct {
	// Admitted frames entered the queue and were (or will be) decoded;
	// Failures of them scored as logical failures. Shed frames were
	// declined by admission control or queue backpressure.
	Admitted    int64
	Shed        int64
	Failures    int64
	DriftEvents int64
}

// Stats reads the stream's accounting; call after Done for final values,
// and after Close to include drift events from the final partial window.
func (s *Stream) Stats() StreamStats {
	s.p.mu.Lock()
	st := StreamStats{Admitted: s.admitted, Shed: s.shed, Failures: s.failures}
	s.p.mu.Unlock()
	st.DriftEvents = s.mon.Events()
	return st
}

// Close releases the stream's admission slot and finalizes its drift
// monitor's trailing partial window. Idempotent. Call once the stream is
// drained (after Done); the monitor stays registered in the health registry
// so /health keeps serving the final state.
func (s *Stream) Close() {
	p := s.p
	p.mu.Lock()
	if s.released {
		p.mu.Unlock()
		return
	}
	s.released = true
	s.t.open--
	p.openN--
	p.openG.Set(float64(p.openN))
	p.mu.Unlock()
	s.mon.Finalize()
}
