package stream_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

func memorySpec(t testing.TB, d int, p float64, shots int) mc.Spec {
	t.Helper()
	patch := code.NewPatch(lattice.NewSquare(d))
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	if err != nil {
		t.Fatal(err)
	}
	return mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 3, Seed: 42}
}

// recordTrace records spec to memory and returns the encoded trace.
func recordTrace(t testing.TB, spec mc.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := stream.Record(context.Background(), spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != spec.Shots {
		t.Fatalf("recorded %d shots, want %d", n, spec.Shots)
	}
	return buf.Bytes()
}

// TestRecordReplayMatchesEvaluate is the tentpole's round-trip oracle: a
// recorded trace replayed through the pipeline must reproduce the logical
// failure count of the in-process evaluation it mirrors, bit-identically,
// for any worker fan-out.
func TestRecordReplayMatchesEvaluate(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 5000) // not a ChunkShots multiple: tail chunk
	eng := mc.New(mc.Options{})
	want, err := eng.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Failures == 0 {
		t.Fatal("test vacuous: no failures at this noise level")
	}

	raw := recordTrace(t, spec)
	fd, err := eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		r, err := stream.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if h := r.Header(); h.Fingerprint != mc.Fingerprint(spec.Circuit) ||
			h.Seed != spec.Seed || h.Shots != uint64(spec.Shots) {
			t.Fatalf("trace header %+v does not carry spec metadata", h)
		}
		stats, err := stream.Replay(context.Background(), r, fd,
			stream.PipelineOptions{Workers: workers, Metrics: obs.Discard})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Frames != spec.Shots {
			t.Fatalf("workers=%d: replayed %d frames, want %d", workers, stats.Frames, spec.Shots)
		}
		if stats.Failures != want.Failures {
			t.Fatalf("workers=%d: replay counted %d failures, Evaluate counted %d",
				workers, stats.Failures, want.Failures)
		}
	}
}

// gatedScorer blocks every ScoreFrame call until its gate closes, so tests
// can hold the pool's workers and observe queueing behaviour. entered
// counts calls that reached the gate (i.e. frames a worker has claimed).
type gatedScorer struct {
	gate    chan struct{}
	entered atomic.Int64
	scored  atomic.Int64
}

func (g *gatedScorer) ScoreFrame(syndrome []int, actual uint64) bool {
	g.entered.Add(1)
	<-g.gate
	g.scored.Add(1)
	return actual&1 == 1
}

// countingReader tallies bytes consumed from the underlying reader so tests
// can see how far the pipeline has read into a stream.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// syntheticTrace builds a trace of n frames with obs = i&1, so half the
// frames "fail" under gatedScorer.
func syntheticTrace(t testing.TB, numDet, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Header{NumDetectors: numDet, NumObs: 1, Shots: uint64(n)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.WriteSyndrome([]int{i % numDet}, uint64(i&1)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// waitStable polls load until its value stops changing for a few
// consecutive checks, returning the settled value.
func waitStable(t testing.TB, load func() int64) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, stable := load(), 0
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := load()
		if cur == last {
			stable++
			if stable >= 5 {
				return cur
			}
		} else {
			last, stable = cur, 0
		}
	}
	t.Fatal("value never stabilized")
	return 0
}

// TestReplayBackpressure: with the decode stage held, the reader may buffer
// at most the queue depth plus in-hand frames — it must not slurp the whole
// stream into memory.
func TestReplayBackpressure(t *testing.T) {
	const (
		numDet     = 16
		frames     = 500
		workers    = 2
		queueDepth = 8
	)
	raw := syntheticTrace(t, numDet, frames)
	frameLen := 4 + 8 + stream.FrameBytes(numDet) + 4

	cr := &countingReader{r: bytes.NewReader(raw)}
	r, err := stream.NewReader(cr)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScorer{gate: make(chan struct{})}
	type out struct {
		stats stream.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, err := stream.Replay(context.Background(), r, g,
			stream.PipelineOptions{Workers: workers, QueueDepth: queueDepth, Metrics: obs.Discard})
		done <- out{stats, err}
	}()

	consumed := waitStable(t, cr.n.Load)
	// Header + (queue + one per worker + one in the reader's hand) frames is
	// the ceiling; anything more means the queue is not applying
	// backpressure.
	maxFrames := int64(queueDepth + workers + 1)
	if got := (consumed - 60) / int64(frameLen); got > maxFrames {
		t.Fatalf("reader consumed %d frames with decode stalled, want ≤ %d", got, maxFrames)
	}

	close(g.gate)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.Frames != frames || g.scored.Load() != frames {
		t.Fatalf("frames=%d scored=%d, want %d", res.stats.Frames, g.scored.Load(), frames)
	}
	if res.stats.Failures != frames/2 {
		t.Fatalf("failures=%d, want %d", res.stats.Failures, frames/2)
	}
}

// TestReplayCancellationDrains: cancelling mid-stream stops the reader
// promptly but the workers still score every frame already queued, and the
// returned stats account for exactly those frames.
func TestReplayCancellationDrains(t *testing.T) {
	const queueDepth = 4
	raw := syntheticTrace(t, 16, 200)
	cr := &countingReader{r: bytes.NewReader(raw)}
	r, err := stream.NewReader(cr)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScorer{gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type out struct {
		stats stream.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, err := stream.Replay(ctx, r, g,
			stream.PipelineOptions{Workers: 1, QueueDepth: queueDepth, Metrics: obs.Discard})
		done <- out{stats, err}
	}()

	waitStable(t, cr.n.Load) // queue full, reader blocked on send
	cancel()
	close(g.gate) // release the decode stage so the drain can run
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if res.stats.Frames == 0 {
		t.Fatal("no frames drained after cancellation")
	}
	if int64(res.stats.Frames) != g.scored.Load() {
		t.Fatalf("stats count %d frames but scorer saw %d", res.stats.Frames, g.scored.Load())
	}
	// 1 in the worker + queueDepth queued is everything that can be
	// committed once the reader stops.
	if res.stats.Frames > queueDepth+1 {
		t.Fatalf("drained %d frames, want ≤ %d", res.stats.Frames, queueDepth+1)
	}
}

// TestReplayTruncatedTrace: the pipeline surfaces truncation as partial
// stats plus ErrTruncated, matching the Reader contract.
func TestReplayTruncatedTrace(t *testing.T) {
	raw := syntheticTrace(t, 16, 50)
	frameLen := 4 + 8 + stream.FrameBytes(16) + 4
	r, err := stream.NewReader(bytes.NewReader(raw[:len(raw)-frameLen/2]))
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScorer{gate: make(chan struct{})}
	close(g.gate)
	stats, err := stream.Replay(context.Background(), r, g, stream.PipelineOptions{Metrics: obs.Discard})
	if !errors.Is(err, stream.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if !stats.Truncated || stats.Frames != 49 {
		t.Fatalf("stats = %+v, want Truncated with 49 frames", stats)
	}
}

// TestServerConcurrentStreams: several clients stream the same recorded
// trace concurrently; every summary must carry the oracle's exact failure
// count, and cancelling the server afterwards shuts Serve down cleanly.
func TestServerConcurrentStreams(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 2000)
	eng := mc.New(mc.Options{})
	want, err := eng.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw := recordTrace(t, spec)
	fd, err := eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	cat := stream.NewCatalog()
	cat.Register(fd.CircuitFingerprint(), fd)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := stream.NewServer(stream.Config{Workers: 2, Metrics: obs.Discard}, cat.Resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			sum, err := stream.SendTrace(conn, bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			if sum.Error != "" || sum.Frames != spec.Shots || sum.Failures != want.Failures {
				errs <- errors.New("summary mismatch: " + sum.Error)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

// TestServerRejectsUnknownCircuit: a trace whose fingerprint is not in the
// catalog gets an error summary, not a decode.
func TestServerRejectsUnknownCircuit(t *testing.T) {
	var buf bytes.Buffer
	h := stream.Header{NumDetectors: 8, NumObs: 1, Shots: 2}
	h.Fingerprint[0] = 0xAB
	w, err := stream.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.WriteSyndrome([]int{i}, 0); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := stream.NewServer(stream.Config{Metrics: obs.Discard}, stream.NewCatalog().Resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sum, err := stream.SendTrace(conn, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Error == "" {
		t.Fatal("unknown fingerprint accepted")
	}
	cancel()
	<-served
}

// halfClosedConn is a connection whose peer has already written its
// summary and closed: writes succeed, CloseWrite fails as it does with
// ENOTCONN, and reads yield the summary line.
type halfClosedConn struct {
	io.Reader
	closeErr error
}

func (c *halfClosedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *halfClosedConn) CloseWrite() error           { return c.closeErr }

// TestSendTraceRejectionBeatsHalfCloseError pins the client side of
// TestServerRejectsUnknownCircuit without its race: the server may write a
// rejection summary and close before the client half-closes. SendTrace
// must then return the summary and no error, as when the half-close wins
// the race; a summary without Error still surfaces the half-close failure.
func TestSendTraceRejectionBeatsHalfCloseError(t *testing.T) {
	closeErr := errors.New("transport endpoint is not connected")
	conn := &halfClosedConn{
		Reader:   bytes.NewReader([]byte(`{"frames":0,"failures":0,"ler":0,"error":"unknown circuit fingerprint"}` + "\n")),
		closeErr: closeErr,
	}
	sum, err := stream.SendTrace(conn, bytes.NewReader([]byte("trace")))
	if err != nil {
		t.Fatalf("rejection summary returned error %v", err)
	}
	if sum.Error != "unknown circuit fingerprint" {
		t.Fatalf("summary error %q, want the server's rejection", sum.Error)
	}

	conn = &halfClosedConn{
		Reader:   bytes.NewReader([]byte(`{"frames":2,"failures":0,"ler":0}` + "\n")),
		closeErr: closeErr,
	}
	sum, err = stream.SendTrace(conn, bytes.NewReader([]byte("trace")))
	if !errors.Is(err, closeErr) {
		t.Fatalf("half-close failure lost: err %v", err)
	}
	if sum.Frames != 2 {
		t.Fatalf("summary frames %d, want 2", sum.Frames)
	}
}

// TestServerDrainingShutdown: cancelling the server while a client is
// mid-stream (header sent, write side still open) must unblock the pending
// connection read and return from Serve; the stalled client sees its
// connection closed.
func TestServerDrainingShutdown(t *testing.T) {
	forEachBackpressure(t, testServerDrainingShutdown)
}

func testServerDrainingShutdown(t *testing.T, bp stream.Backpressure) {
	g := &gatedScorer{gate: make(chan struct{})}
	close(g.gate)
	resolve := func(stream.Header) (stream.FrameScorer, error) { return g, nil }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := stream.NewServer(stream.Config{Backpressure: bp, Metrics: obs.Discard}, resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a header plus one frame, then stall with the stream open.
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Header{NumDetectors: 8, NumObs: 1, Shots: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSyndrome([]int{3}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain the stalled connection")
	}
	// The server side closed our connection; the read eventually fails.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err == nil {
		// EOF from the closed server side is the expected clean outcome;
		// ReadAll maps it to nil, which is fine too.
		_ = err
	}
}

// TestReplayRealDecoderConcurrencyDeterminism replays the same real trace at
// several fan-outs with the production FrameDecoder and requires identical
// counts — the worker-count independence half of the determinism contract.
func TestReplayRealDecoderConcurrencyDeterminism(t *testing.T) {
	spec := memorySpec(t, 3, 5e-3, 1500)
	raw := recordTrace(t, spec)
	fd, err := mc.New(mc.Options{}).FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	base := -1
	for _, workers := range []int{1, 3, 8} {
		r, err := stream.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := stream.Replay(context.Background(), r, fd,
			stream.PipelineOptions{Workers: workers, QueueDepth: 16, Metrics: obs.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if base == -1 {
			base = stats.Failures
		} else if stats.Failures != base {
			t.Fatalf("workers=%d: %d failures, workers=1 counted %d", workers, stats.Failures, base)
		}
	}
}
