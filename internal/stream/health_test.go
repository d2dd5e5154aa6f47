package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"caliqec/internal/stream"
)

// parityScorer fails a frame when the low observable bit is set — the
// deterministic stand-in for a real decoder in monitor tests.
type parityScorer struct{}

func (parityScorer) ScoreFrame(syndrome []int, actual uint64) bool { return actual&1 == 1 }

// driftTrace synthesizes steadyW windows of steady behaviour followed by
// driftW drifting windows of `window` frames each over numDet detectors.
// Steady: detector i%numDet fires each frame, 2% of frames fail. Drifting:
// detector hotDet additionally fires every frame and 30% of frames fail.
func driftTrace(t testing.TB, numDet, window, steadyW, driftW, hotDet int) []byte {
	t.Helper()
	var buf bytes.Buffer
	n := (steadyW + driftW) * window
	w, err := stream.NewWriter(&buf, stream.Header{NumDetectors: numDet, NumObs: 1, Shots: uint64(n)})
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < steadyW+driftW; wi++ {
		hot := wi >= steadyW
		for i := 0; i < window; i++ {
			idx := wi*window + i
			syn := []int{idx % numDet}
			if hot && syn[0] != hotDet {
				if syn[0] < hotDet {
					syn = append(syn, hotDet)
				} else {
					syn = []int{hotDet, syn[0]}
				}
			}
			failEvery := 50 // 2%
			if hot {
				failEvery = 3 // ~33%
			}
			var o uint64
			if i%failEvery == 0 {
				o = 1
			}
			if err := w.WriteSyndrome(syn, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func testEstimator(window int) stream.EstimatorConfig {
	return stream.EstimatorConfig{
		Window:          window,
		EWMAShift:       2,
		Slack:           0.02,
		Threshold:       0.1,
		BaselineWindows: 4,
		LERZ:            3,
	}
}

// TestMonitorDetectsDrift: the synthetic step trace must produce fire-rate
// events attributed to the hot detector and LER events, while the steady
// prefix alone produces none.
func TestMonitorDetectsDrift(t *testing.T) {
	const numDet, window, hotDet = 4, 100, 2

	// Steady control: no events at all.
	steady := driftTrace(t, numDet, window, 8, 0, hotDet)
	r, err := stream.NewReader(bytes.NewReader(steady))
	if err != nil {
		t.Fatal(err)
	}
	health := stream.NewHealthRegistry()
	opt := stream.PipelineOptions{Workers: 2, Metrics: obs.Discard, Estimator: testEstimator(window)}
	opt.Estimator.Health = health
	stats, err := stream.Replay(context.Background(), r, parityScorer{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DriftEvents != 0 {
		t.Fatalf("steady trace produced %d drift events", stats.DriftEvents)
	}
	snap := health.Get("replay").Snapshot()
	if len(snap.Drifting) != 0 || len(snap.DriftingQubits) != 0 {
		t.Fatalf("steady snapshot flags drift: %+v", snap)
	}
	if snap.Windows != 8 || snap.PendingFrames != 0 {
		t.Fatalf("windows=%d pending=%d, want 8/0", snap.Windows, snap.PendingFrames)
	}

	// Step trace: 4 baseline + 2 steady + 4 drifting windows.
	var events bytes.Buffer
	sink := obs.NewEventSink(&events, 64)
	raw := driftTrace(t, numDet, window, 6, 4, hotDet)
	r, err = stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	opt.Estimator.Events = sink
	stats, err = stream.Replay(context.Background(), r, parityScorer{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.DriftEvents == 0 {
		t.Fatal("drifting trace produced no events")
	}
	if sink.Emitted() != stats.DriftEvents || sink.Dropped() != 0 {
		t.Fatalf("sink emitted=%d dropped=%d, stats counted %d", sink.Emitted(), sink.Dropped(), stats.DriftEvents)
	}

	var sawFire, sawLER bool
	dec := json.NewDecoder(&events)
	for dec.More() {
		var ev stream.DriftEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.DriftFireRate:
			sawFire = true
			if ev.Detector != hotDet {
				t.Fatalf("fire-rate event on detector %d, only %d drifts", ev.Detector, hotDet)
			}
			// First drifting window is the 7th (1-based); a 10x step must
			// trip immediately.
			if ev.Window < 7 {
				t.Fatalf("fire-rate event in window %d, before the step", ev.Window)
			}
			if ev.Severity != stream.SeverityCrit {
				t.Errorf("10x fire-rate step flagged %q, want crit", ev.Severity)
			}
		case stream.DriftLER:
			sawLER = true
			if ev.Detector != -1 || ev.Window < 7 {
				t.Fatalf("malformed LER event: %+v", ev)
			}
			if ev.RateLo <= ev.BaselineHi {
				t.Fatalf("LER event without interval separation: %+v", ev)
			}
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	if !sawFire || !sawLER {
		t.Fatalf("event kinds missing: fire=%v ler=%v", sawFire, sawLER)
	}

	snap = health.Get("replay").Snapshot()
	if len(snap.Drifting) != 1 || snap.Drifting[0].Detector != hotDet {
		t.Fatalf("drifting detectors %+v, want exactly detector %d", snap.Drifting, hotDet)
	}
	if snap.Events != stats.DriftEvents || snap.DroppedEvents != 0 {
		t.Fatalf("snapshot events=%d dropped=%d, want %d/0", snap.Events, snap.DroppedEvents, stats.DriftEvents)
	}
	if snap.LER <= snap.BaselineLER {
		t.Fatalf("rolling LER %g not above baseline %g after the step", snap.LER, snap.BaselineLER)
	}
}

// TestHealthDeterminismAcrossWorkers: the same trace must yield a
// byte-identical HealthSnapshot JSON encoding and a byte-identical drift
// event log whether one worker or eight raced over the frames.
func TestHealthDeterminismAcrossWorkers(t *testing.T) {
	raw := driftTrace(t, 4, 100, 6, 4, 2)
	run := func(workers int) (snapJSON, eventLog []byte) {
		t.Helper()
		r, err := stream.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		sink := obs.NewEventSink(&events, 256)
		health := stream.NewHealthRegistry()
		opt := stream.PipelineOptions{Workers: workers, Metrics: obs.Discard, Estimator: testEstimator(100)}
		opt.Estimator.Health = health
		opt.Estimator.Events = sink
		if _, err := stream.Replay(context.Background(), r, parityScorer{}, opt); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(health.Get("replay").Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return js, events.Bytes()
	}
	snap1, ev1 := run(1)
	snap8, ev8 := run(8)
	if !bytes.Equal(snap1, snap8) {
		t.Errorf("snapshots diverge across worker counts:\n 1: %s\n 8: %s", snap1, snap8)
	}
	if !bytes.Equal(ev1, ev8) {
		t.Errorf("event logs diverge across worker counts:\n 1: %s\n 8: %s", ev1, ev8)
	}
	if len(ev1) == 0 {
		t.Error("determinism test vacuous: no events generated")
	}
}

// TestMonitorObserveSpanMatchesObserve: a trace fed through ObserveSpan in
// spans of 1 to 130 frames, which straddle window edges and reach the
// monitor out of order from two goroutines, yields the same snapshot JSON,
// event log and event count as the trace fed frame by frame through
// Observe, and either way every window is finalized as soon as it fills.
func TestMonitorObserveSpanMatchesObserve(t *testing.T) {
	const window = 100
	r, err := stream.NewReader(bytes.NewReader(driftTrace(t, 4, window, 6, 4, 2)))
	if err != nil {
		t.Fatal(err)
	}
	// Every frame's detectors in one flat list; frame i's end at ends[i].
	var syn, ends []int
	var failed []bool
	var f stream.Frame
	for {
		if err := r.Next(&f); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		syn = f.Syndrome(syn)
		ends = append(ends, len(syn))
		failed = append(failed, parityScorer{}.ScoreFrame(nil, f.Obs))
	}
	begin := func(i int) int {
		if i == 0 {
			return 0
		}
		return ends[i-1]
	}
	run := func(feed func(*stream.Monitor)) (snap, events []byte, n int64) {
		t.Helper()
		var log bytes.Buffer
		sink := obs.NewEventSink(&log, 256)
		cfg := testEstimator(window)
		cfg.Stream = "s"
		cfg.Events = sink
		m := stream.NewMonitor(cfg, parityScorer{}, r.Header(), obs.Discard)
		feed(m)
		// The trace is whole windows, so each completed as it filled.
		if s := m.Snapshot(); s.Windows != int64(len(ends)/window) || s.PendingFrames != 0 {
			t.Errorf("before Finalize: %d windows, %d pending frames; want %d, 0", s.Windows, s.PendingFrames, len(ends)/window)
		}
		m.Finalize()
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return js, log.Bytes(), m.Events()
	}

	snap1, ev1, n1 := run(func(m *stream.Monitor) {
		for i := range ends {
			m.Observe(int64(i), syn[begin(i):ends[i]], failed[i])
		}
	})

	type span struct{ first, n int }
	var spans []span
	straddle := 0
	g := rng.New(23)
	for i := 0; i < len(ends); {
		n := min(1+g.Intn(130), len(ends)-i)
		if i/window != (i+n-1)/window {
			straddle++
		}
		spans = append(spans, span{i, n})
		i += n
	}
	if straddle == 0 {
		t.Fatal("no span straddles a window edge")
	}
	snap2, ev2, n2 := run(func(m *stream.Monitor) {
		deliver := func(sp span) {
			lo, hi := begin(sp.first), ends[sp.first+sp.n-1]
			rel := make([]int, sp.n)
			for j := range rel {
				rel[j] = ends[sp.first+j] - lo
			}
			m.ObserveSpan(int64(sp.first), syn[lo:hi], rel, failed[sp.first:sp.first+sp.n])
		}
		// One goroutine delivers the even spans last to first, the other
		// the odd spans first to last, so windows complete out of order
		// however the two interleave.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := (len(spans) - 1) &^ 1; k >= 0; k -= 2 {
				deliver(spans[k])
			}
		}()
		go func() {
			defer wg.Done()
			for k := 1; k < len(spans); k += 2 {
				deliver(spans[k])
			}
		}()
		wg.Wait()
	})

	if len(ev1) == 0 {
		t.Fatal("vacuous: the frame-by-frame run produced no events")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("snapshots differ:\n Observe:     %s\n ObserveSpan: %s", snap1, snap2)
	}
	if !bytes.Equal(ev1, ev2) {
		t.Errorf("event logs differ:\n Observe:\n%s ObserveSpan:\n%s", ev1, ev2)
	}
	if n1 != n2 {
		t.Errorf("Events() = %d through ObserveSpan, %d through Observe", n2, n1)
	}
}

// TestHealthEndpoint: /health lists every stream sorted by name,
// /health/stream/<id> serves one, unknown streams 404.
func TestHealthEndpoint(t *testing.T) {
	raw := driftTrace(t, 4, 100, 6, 4, 2)
	health := stream.NewHealthRegistry()
	for _, name := range []string{"beta", "alpha"} {
		r, err := stream.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		opt := stream.PipelineOptions{Workers: 2, Metrics: obs.Discard, Estimator: testEstimator(100)}
		opt.Estimator.Health = health
		opt.Estimator.Stream = name
		if _, err := stream.Replay(context.Background(), r, parityScorer{}, opt); err != nil {
			t.Fatal(err)
		}
	}

	h := health.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != 200 {
		t.Fatalf("/health status %d", rec.Code)
	}
	var rep struct {
		Streams []stream.HealthSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Streams) != 2 || rep.Streams[0].Stream != "alpha" || rep.Streams[1].Stream != "beta" {
		t.Fatalf("/health streams: %+v", rep.Streams)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/health/stream/alpha", nil))
	if rec.Code != 200 {
		t.Fatalf("/health/stream/alpha status %d", rec.Code)
	}
	var snap stream.HealthSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stream != "alpha" || snap.Frames != 1000 || len(snap.Drifting) != 1 {
		t.Fatalf("/health/stream/alpha snapshot: %+v", snap)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/health/stream/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown stream status %d, want 404", rec.Code)
	}
}

// TestServerDriftMonitoring: a server with the estimator enabled assigns
// per-connection stream names, reports drift in the summary, and exposes
// the monitor through the health registry.
func TestServerDriftMonitoring(t *testing.T) {
	forEachBackpressure(t, testServerDriftMonitoring)
}

func testServerDriftMonitoring(t *testing.T, bp stream.Backpressure) {
	raw := driftTrace(t, 4, 100, 6, 4, 2)
	health := stream.NewHealthRegistry()
	cfg := stream.Config{Workers: 2, StreamQueue: 1000, Backpressure: bp, Metrics: obs.Discard, Estimator: testEstimator(100)}
	cfg.Estimator.Health = health
	srv := stream.NewServer(cfg, func(stream.Header) (stream.FrameScorer, error) {
		return parityScorer{}, nil
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := stream.SendTrace(conn.(*net.TCPConn), bytes.NewReader(raw))
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stream != "conn-1" {
		t.Fatalf("summary stream %q, want conn-1", sum.Stream)
	}
	if sum.DriftEvents == 0 {
		t.Fatal("summary reports no drift events")
	}
	snap := health.Get("conn-1").Snapshot()
	if snap.Frames != 1000 || len(snap.Drifting) != 1 {
		t.Fatalf("conn-1 snapshot: %+v", snap)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsLiveInSharedRegistry: the server's connection metrics
// must land in the caller's registry so a /metrics scrape mid-stream shows
// the live connection, not a stale private copy.
func TestServerMetricsLiveInSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry(nil)
	gate := make(chan struct{})
	scorer := &gatedScorer{gate: gate}
	srv := stream.NewServer(stream.Config{Workers: 1, StreamQueue: 4, Metrics: reg}, func(stream.Header) (stream.FrameScorer, error) {
		return scorer, nil
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	raw := syntheticTrace(t, 8, 32)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	// scrape fetches one metric from the registry's HTTP handler — the same
	// path `caliqec serve -debug-addr` exposes.
	scrape := func(name string) float64 {
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var m map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		raw, ok := m[name]
		if !ok {
			return 0
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// The decode stage is gated, so the connection stays active until we
	// release it; /metrics must show it live.
	waitFor(t, func() bool { return scrape("stream.server.active") == 1 }) //lint:allow floateq JSON round-trips the exact gauge integer
	if scrape("stream.server.conns") != 1 {                                //lint:allow floateq exact small integer
		t.Fatalf("conns = %g mid-stream, want 1", scrape("stream.server.conns"))
	}

	close(gate)
	var sum stream.Summary
	if err := json.NewDecoder(conn).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if sum.Frames != 32 {
		t.Fatalf("summary frames %d, want 32", sum.Frames)
	}
	waitFor(t, func() bool { return scrape("stream.server.active") == 0 }) //lint:allow floateq exact small integer

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestMonitorNilSafety: a nil monitor and zero-window configs are inert.
func TestMonitorNilSafety(t *testing.T) {
	var m *stream.Monitor
	m.Observe(0, []int{1}, true)
	if s := m.Snapshot(); s.Frames != 0 {
		t.Fatalf("nil monitor snapshot: %+v", s)
	}
	if m.Events() != 0 || m.Stream() != "" {
		t.Fatal("nil monitor not inert")
	}
	var h *stream.HealthRegistry
	h.Register(nil)
	h.Unregister("x")
	if h.Get("x") != nil || h.Streams() != nil {
		t.Fatal("nil registry not inert")
	}
}
