package stream

import (
	"bufio"
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
	// Tenant echoes the tenant the stream was accounted to.
	Tenant uint32 `json:"tenant,omitempty"`
	// Shed counts frames the server declined under admission control or
	// queue backpressure; Frames counts only the decoded ones, so
	// Frames+Shed is what the client sent.
	Shed int64 `json:"shed,omitempty"`
	// Overload marks a stream the server shed — entirely (admission refused,
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

// Resolve returns the scorer for h's fingerprint after checkGeometry
// accepts h against it.
func (c *Catalog) Resolve(h Header) (FrameScorer, error) {
	c.mu.RLock()
	s, ok := c.m[h.Fingerprint]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stream: no decoder registered for circuit fingerprint %x", h.Fingerprint)
	}
	if err := checkGeometry(h, s); err != nil {
		return nil, err
	}
	return s, nil
}

// checkGeometry verifies a trace header's geometry — detectors,
// observables and rounds per shot — against the scorer's circuit when the
// scorer exposes it (as *mc.FrameDecoder does). A frame wider than the
// decoder's circuit would index past its detectors.
func checkGeometry(h Header, s FrameScorer) error {
	if dims, ok := s.(interface {
		NumDetectors() int
		NumObs() int
	}); ok {
		if dims.NumDetectors() != h.NumDetectors || dims.NumObs() != h.NumObs {
			return fmt.Errorf("stream: trace geometry (%d detectors, %d observables) does not match decoder (%d, %d)",
				h.NumDetectors, h.NumObs, dims.NumDetectors(), dims.NumObs())
		}
	}
	// Round geometry: a windowed decoder splits each frame by round, so a
	// trace recorded with a different rounds-per-shot would be mis-sliced,
	// and a whole-shot decoder's graph would not be the trace's. Traces
	// recorded from the registered circuit carry its round count; v1 traces
	// carry none (h.Rounds == 0) and are accepted — the decoder's own round
	// map governs the split.
	if rd, ok := s.(interface{ NumRounds() int }); ok && h.Rounds > 0 {
		if rd.NumRounds() != h.Rounds {
			return fmt.Errorf("stream: trace rounds/shot %d does not match decoder rounds %d", h.Rounds, rd.NumRounds())
		}
	}
	return nil
}

// Server ingests trace streams over any net.Listener and decodes every
// connection through one shared Pool. The protocol is the trace format
// itself: a client connects, streams header plus frames, half-closes its
// write side, and receives one JSON Summary line. The trace header's
// Tenant field selects the admission and scheduling policy, and the pool's
// Backpressure decides what a full stream queue does: Block stalls the
// connection read, which TCP flow control propagates to the sender; Shed
// drops and counts the frame, reported in the summary (Shed count,
// Overload flag), and keeps reading. Either way server memory stays
// bounded per stream regardless of client rate.
type Server struct {
	pool    *Pool
	resolve func(Header) (FrameScorer, error)

	conns    *obs.Counter // stream.server.conns: connections accepted
	active   *obs.Gauge   // stream.server.active: streams being decoded now
	rejected *obs.Counter // stream.server.rejected: streams refused (bad header / unknown circuit)
	// activeN backs the active gauge: gauges are last-value, so concurrent
	// handlers increment this atomic and publish its value.
	activeN atomic.Int64
	connSeq atomic.Int64 // stream name sequence
}

// NewServer builds the pool from cfg and resolves incoming streams through
// resolve (typically Catalog.Resolve). Metrics land in cfg.Metrics. Every
// connection's stream is named "conn-1", "conn-2", ...; when
// cfg.Estimator.Window > 0 its drift monitor registers under that name in
// cfg.Estimator.Health. Note each monitored name adds a
// stream.drift.qubits.<name> gauge to the registry, so a long-lived server
// with monitoring on accumulates one gauge per connection.
func NewServer(cfg Config, resolve func(Header) (FrameScorer, error)) *Server {
	p := NewPool(cfg)
	return &Server{
		pool:     p,
		resolve:  resolve,
		conns:    p.reg.Counter("stream.server.conns"),
		active:   p.reg.Gauge("stream.server.active"),
		rejected: p.reg.Counter("stream.server.rejected"),
	}
}

// Pool returns the server's shared worker pool (tests and metrics probes).
func (s *Server) Pool() *Pool { return s.pool }

// Serve accepts connections from ln until ctx is canceled, then drains:
// cancellation closes the listener and unblocks in-flight connection reads
// (and Offers blocked on a full queue), handlers finish their streams (the
// pool decodes what was admitted and each drift monitor finalizes its
// partial window), the pool shuts down, and the drift-event sink is
// flushed — so no events from final partial windows are lost at shutdown.
// A cancellation-triggered stop returns nil; any other accept failure is
// returned after the same drain. Serve owns the pool's lifecycle: it is
// one-shot.
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
		s.conns.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleConn(ctx, conn)
		}()
	}
	wg.Wait()
	s.pool.Close()
	// The sink stays open — it is caller-owned and may be shared.
	if err := s.pool.cfg.Estimator.Events.Flush(); err != nil && acceptErr == nil {
		acceptErr = fmt.Errorf("stream: flushing drift events: %w", err)
	}
	return acceptErr
}

// handleConn reads one connection's frames into the pool and writes the
// summary. The trace is parsed through a bufio.Reader of the default size,
// so one socket read fills a block of frames (about 130 at d=5) instead of
// two reads per frame; under Block the connection therefore holds up to
// one buffer of unparsed bytes beyond the stream's queue. On cancellation
// the connection is closed to unblock a pending read; the pool still
// decodes what was admitted, and the summary write is then a best-effort
// no-op on the closed socket.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	ctx, span := obs.StartSpan(ctx, "stream.serve_conn")
	defer span.End()
	s.active.Set(float64(s.activeN.Add(1)))
	defer func() { s.active.Set(float64(s.activeN.Add(-1))) }()

	var h Header
	var scorer FrameScorer
	r, err := NewReader(bufio.NewReader(conn))
	if err == nil {
		h = r.Header()
		scorer, err = s.resolve(h)
	}
	if err != nil {
		s.rejected.Inc()
		span.Event("rejected")
		writeSummary(conn, Summary{Tenant: h.Tenant, Error: err.Error()})
		return
	}
	name := fmt.Sprintf("conn-%d", s.connSeq.Add(1))
	st, err := s.pool.Open(h, scorer, name)
	if err != nil {
		// Admission refused (stream cap): the overload summary is the typed
		// wire response — SendTrace surfaces it as ErrOverload.
		span.Event("overload")
		writeSummary(conn, Summary{Overload: true, Tenant: h.Tenant, Error: err.Error()})
		return
	}
	stats, rerr := ingest(ctx, r, st)
	sum := Summary{
		Frames:    int(stats.Admitted),
		Failures:  int(stats.Failures),
		Tenant:    h.Tenant,
		Shed:      stats.Shed,
		Overload:  stats.Shed > 0,
		Truncated: errors.Is(rerr, ErrTruncated),
	}
	if s.pool.cfg.Estimator.Window > 0 {
		sum.Stream = name
		sum.DriftEvents = stats.DriftEvents
	}
	if stats.Admitted > 0 {
		sum.LER = float64(stats.Failures) / float64(stats.Admitted)
	}
	if rerr != nil && !sum.Truncated {
		sum.Error = rerr.Error()
	}
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
// server that refuses admission writes its rejection summary and
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
