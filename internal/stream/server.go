package stream

import (
	"caliqec/internal/obs"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Summary is the server's single-line JSON reply to one ingested stream.
type Summary struct {
	Frames    int     `json:"frames"`
	Failures  int     `json:"failures"`
	LER       float64 `json:"ler"`
	Truncated bool    `json:"truncated,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Stream is the server-assigned stream name ("conn-N") when drift
	// monitoring is on; look it up under /health/stream/<Stream>.
	Stream string `json:"stream,omitempty"`
	// DriftEvents counts the drift events the stream's monitor generated.
	DriftEvents int64 `json:"drift_events,omitempty"`
	// Tenant echoes the tenant the stream was accounted to (fleet servers).
	Tenant uint32 `json:"tenant,omitempty"`
	// Shed counts frames the fleet declined under admission control or
	// queue backpressure; Frames counts only the decoded ones, so
	// Frames+Shed is what the client sent.
	Shed int64 `json:"shed,omitempty"`
	// Overload marks a stream the fleet shed — entirely (admission refused,
	// Frames == 0) or partially (Shed > 0). SendTrace surfaces it as
	// ErrOverload.
	Overload bool `json:"overload,omitempty"`
}

// Catalog maps circuit fingerprints to frame scorers: the server's view of
// which circuits it can decode. Safe for concurrent use.
type Catalog struct {
	mu sync.RWMutex
	m  map[[16]byte]FrameScorer
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: map[[16]byte]FrameScorer{}}
}

// Register adds (or replaces) the scorer serving fingerprint fp.
func (c *Catalog) Register(fp [16]byte, s FrameScorer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fp] = s
}

// Len returns how many fingerprints are registered.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Resolve returns the scorer for h's fingerprint, verifying the trace
// geometry against the scorer's circuit when the scorer exposes it (as
// *mc.FrameDecoder does).
func (c *Catalog) Resolve(h Header) (FrameScorer, error) {
	c.mu.RLock()
	s, ok := c.m[h.Fingerprint]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stream: no decoder registered for circuit fingerprint %x", h.Fingerprint)
	}
	if dims, ok := s.(interface {
		NumDetectors() int
		NumObs() int
	}); ok {
		if dims.NumDetectors() != h.NumDetectors || dims.NumObs() != h.NumObs {
			return nil, fmt.Errorf("stream: trace geometry (%d detectors, %d observables) does not match decoder (%d, %d)",
				h.NumDetectors, h.NumObs, dims.NumDetectors(), dims.NumObs())
		}
	}
	// Round geometry: a windowed decoder (exposing NumRounds, as
	// *mc.WindowedFrameDecoder does) splits each frame by round, so a trace
	// recorded with a different rounds-per-shot would be mis-sliced. v1
	// traces carry no round count (h.Rounds == 0) and are accepted — the
	// decoder's own round map governs the split.
	if rd, ok := s.(interface{ NumRounds() int }); ok && h.Rounds > 0 {
		if rd.NumRounds() != h.Rounds {
			return nil, fmt.Errorf("stream: trace rounds/shot %d does not match decoder rounds %d", h.Rounds, rd.NumRounds())
		}
	}
	return s, nil
}

// Server ingests length-prefixed trace streams over TCP (or any
// net.Listener) and live-decodes them through the replay pipeline. The
// protocol is the trace format itself: a client connects, streams header
// plus frames, half-closes its write side, and receives one JSON Summary
// line. Backpressure is end-to-end — the bounded pipeline queue blocks the
// connection read, which TCP flow control propagates to the sender — so
// server memory stays bounded per stream regardless of client rate.
type Server struct {
	resolve func(Header) (FrameScorer, error)
	opt     PipelineOptions

	metrics serverMetrics
	connSeq atomic.Int64 // stream name sequence for drift monitoring
}

// serverMetrics bundles the server's handles into the shared obs.Registry
// (the one PipelineOptions.Metrics selects), so a /metrics scrape of that
// registry reflects live connection state — not a private copy.
type serverMetrics struct {
	conns    *obs.Counter // stream.server.conns: connections accepted
	active   *obs.Gauge   // stream.server.active: streams being decoded now
	rejected *obs.Counter // stream.server.rejected: streams refused (bad header / unknown circuit)

	// activeN backs the active gauge: gauges are last-value, so concurrent
	// handlers increment this atomic and publish its value.
	activeN atomic.Int64
}

// newServerMetrics resolves the server's handles in reg (nil selects
// obs.Default, obs.Discard disables them).
func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return serverMetrics{
		conns:    reg.Counter("stream.server.conns"),
		active:   reg.Gauge("stream.server.active"),
		rejected: reg.Counter("stream.server.rejected"),
	}
}

// connStarted records a connection entering decode and publishes the new
// active count; the returned func records it leaving.
func (m *serverMetrics) connStarted() (done func()) {
	m.active.Set(float64(m.activeN.Add(1)))
	return func() { m.active.Set(float64(m.activeN.Add(-1))) }
}

// NewServer returns a server resolving incoming streams through resolve
// (typically Catalog.Resolve) and decoding them with opt. Metrics land in
// opt.Metrics. When opt.Estimator.Window > 0 every connection gets its own
// drift monitor under a server-assigned stream name ("conn-1", "conn-2",
// ...), registered in opt.Estimator.Health when set; note each name adds a
// stream.drift.qubits.<name> gauge to the registry, so a long-lived server
// with monitoring on accumulates one gauge per connection.
func NewServer(resolve func(Header) (FrameScorer, error), opt PipelineOptions) *Server {
	return &Server{
		resolve: resolve,
		opt:     opt,
		metrics: newServerMetrics(opt.Metrics),
	}
}

// Serve accepts connections from ln until ctx is canceled, decoding each
// stream concurrently. Shutdown is draining: cancellation closes the
// listener and unblocks in-flight connection reads, each pipeline drains
// its queued frames, and Serve returns only after every handler has
// finished. A cancellation-triggered shutdown returns nil; any other
// accept failure is returned after the same drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		s.metrics.conns.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleConn(ctx, conn)
		}()
	}
	wg.Wait()
	// Every handler has drained and finalized its monitor windows; flush the
	// drift-event sink so events from the final partial windows reach the log
	// before Serve returns and the process moves on (or exits). The sink
	// stays open — it is caller-owned and may be shared.
	if err := s.opt.Estimator.Events.Flush(); err != nil && acceptErr == nil {
		acceptErr = fmt.Errorf("stream: flushing drift events: %w", err)
	}
	return acceptErr
}

// handleConn decodes one connection's stream and writes the summary line.
// On cancellation the connection is closed to unblock a pending read; the
// pipeline still drains what was queued, and the summary write is then a
// best-effort no-op on the closed socket.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	ctx, span := obs.StartSpan(ctx, "stream.serve_conn")
	defer span.End()

	done := s.metrics.connStarted()
	defer done()

	r, err := NewReader(conn)
	if err != nil {
		s.metrics.rejected.Inc()
		span.Event("rejected")
		writeSummary(conn, Summary{Error: err.Error()})
		return
	}
	scorer, err := s.resolve(r.Header())
	if err != nil {
		s.metrics.rejected.Inc()
		span.Event("rejected")
		writeSummary(conn, Summary{Error: err.Error()})
		return
	}
	opt := s.opt
	if opt.Estimator.Window > 0 {
		opt.Estimator.Stream = fmt.Sprintf("conn-%d", s.connSeq.Add(1))
	}
	stats, rerr := Replay(ctx, r, scorer, opt)
	sum := Summary{Frames: stats.Frames, Failures: stats.Failures, Truncated: stats.Truncated}
	if opt.Estimator.Window > 0 {
		sum.Stream = opt.Estimator.Stream
		sum.DriftEvents = stats.DriftEvents
	}
	if stats.Frames > 0 {
		sum.LER = float64(stats.Failures) / float64(stats.Frames)
	}
	if rerr != nil && !errors.Is(rerr, ErrTruncated) {
		sum.Error = rerr.Error()
	}
	span.SetAttr("frames", stats.Frames)
	writeSummary(conn, sum)
}

// writeSummary sends one JSON summary line; errors are ignored (the peer
// may already be gone, and the stream stats were recorded regardless).
func writeSummary(w io.Writer, sum Summary) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(sum)
}

// CloseWriter is the half-close capability SendTrace needs from its
// connection; *net.TCPConn implements it.
type CloseWriter interface {
	CloseWrite() error
}

// SendTrace streams an already-encoded trace from tr to conn, half-closes
// the write side so the server sees end-of-stream, and decodes the server's
// summary line. The caller owns conn (set deadlines there for timeouts) and
// closes it afterwards.
//
// When the server sheds the stream the returned error wraps ErrOverload and
// the Summary still carries the server's accounting (admitted frames, shed
// count, tenant). This holds even when the send itself fails mid-copy: a
// fleet server that refuses admission writes its rejection summary and
// closes, which surfaces client-side as a write error (EPIPE/RST) — before
// reporting corruption, SendTrace reads whatever summary the server managed
// to send and classifies from it. A summary that carries Error is returned
// with a nil error whether or not the send failed: a server that rejects a
// stream (an unknown circuit, say) may close before the client half-closes,
// so the half-close failing is part of the rejection, not a second fault.
func SendTrace(conn io.ReadWriter, tr io.Reader) (Summary, error) {
	cw, ok := conn.(CloseWriter)
	if !ok {
		return Summary{}, fmt.Errorf("stream: connection %T cannot half-close; SendTrace requires a CloseWriter", conn)
	}
	// An I/O failure here may be the server closing on us after writing a
	// rejection summary, so fall through to the summary read either way; a
	// broken connection makes that read fail fast rather than block.
	copyErr := func() error {
		if _, err := io.Copy(conn, tr); err != nil {
			return fmt.Errorf("stream: sending trace: %w", err)
		}
		if err := cw.CloseWrite(); err != nil {
			return fmt.Errorf("stream: half-closing: %w", err)
		}
		return nil
	}()
	var sum Summary
	if err := json.NewDecoder(conn).Decode(&sum); err != nil {
		if copyErr != nil {
			return Summary{}, copyErr
		}
		return Summary{}, fmt.Errorf("stream: reading summary: %w", err)
	}
	if sum.Overload {
		return sum, fmt.Errorf("%w: %d frames admitted, %d shed (tenant %d)", ErrOverload, sum.Frames, sum.Shed, sum.Tenant)
	}
	if copyErr != nil && sum.Error == "" {
		return sum, copyErr
	}
	return sum, nil
}
