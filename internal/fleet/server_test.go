package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"caliqec/internal/fleet"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// parityScorer fails a frame when the low observable bit is set.
type parityScorer struct{}

func (parityScorer) ScoreFrame(syndrome []int, actual uint64) bool { return actual&1 == 1 }

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// syntheticTrace encodes n frames for tenant with obs = i&1, so half the
// frames "fail" under parityScorer.
func syntheticTrace(t testing.TB, numDet, n int, tenant uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Header{
		NumDetectors: numDet, NumObs: 1, Shots: uint64(n), Tenant: tenant,
	})
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]byte, stream.FrameBytes(numDet))
	for i := 0; i < n; i++ {
		if err := w.WriteFrame(packed, uint64(i&1)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// startFleetServer serves cfg on a loopback listener, resolving every
// stream to scorer, and returns the address plus a shutdown func that
// waits for Serve to return.
func startFleetServer(t *testing.T, cfg fleet.Config, scorer stream.FrameScorer) (addr string, shutdown func()) {
	t.Helper()
	srv := fleet.NewServer(cfg, func(stream.Header) (stream.FrameScorer, error) { return scorer, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after cancellation")
		}
	}
}

func sendTrace(t *testing.T, addr string, raw []byte) (stream.Summary, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return stream.SendTrace(conn.(*net.TCPConn), bytes.NewReader(raw))
}

// TestFleetServerRoundTrip: a clean stream through the shared pool yields
// the per-connection server's summary semantics — frames, failures, LER —
// plus the tenant echo, with nothing shed.
func TestFleetServerRoundTrip(t *testing.T) {
	addr, shutdown := startFleetServer(t, fleet.Config{
		Workers: 4, Metrics: obs.Discard,
	}, parityScorer{})
	defer shutdown()

	// n below the stream-queue bound: admission is then deterministic (the
	// queue can absorb the whole burst even before a worker wakes), so
	// nothing sheds regardless of scheduling.
	const n = 200
	sum, err := sendTrace(t, addr, syntheticTrace(t, 16, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Frames != n || sum.Failures != n/2 || sum.Tenant != 3 || sum.Shed != 0 || sum.Overload {
		t.Fatalf("summary %+v, want %d frames, %d failures, tenant 3, nothing shed", sum, n, n/2)
	}
	if sum.LER != 0.5 {
		t.Fatalf("LER %g, want 0.5", sum.LER)
	}
}

// TestFleetServerStreamCapOverload: a tenant over its MaxStreams cap gets
// an overload summary that SendTrace classifies as ErrOverload — not as
// truncation or corruption (the satellite-2 contract).
func TestFleetServerStreamCapOverload(t *testing.T) {
	reg := obs.NewRegistry(nil)
	addr, shutdown := startFleetServer(t, fleet.Config{
		Workers: 1, Metrics: reg,
		Tenants: map[uint32]fleet.TenantConfig{9: {MaxStreams: 1}},
	}, parityScorer{})
	defer shutdown()

	// First connection: send the header and hold the stream open so the
	// tenant's only slot stays occupied.
	raw := syntheticTrace(t, 16, 4, 9)
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if _, err := hold.Write(raw[:68]); err != nil { // header only
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reg.Gauge("fleet.streams.open").Value() == 1 })

	// Second connection for the same tenant: refused at admission.
	sum, err := sendTrace(t, addr, raw)
	if !errors.Is(err, stream.ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	if !sum.Overload || sum.Tenant != 9 || sum.Frames != 0 {
		t.Fatalf("overload summary %+v", sum)
	}
	if errors.Is(err, stream.ErrTruncated) || errors.Is(err, stream.ErrCorrupt) {
		t.Fatalf("overload misclassified: %v", err)
	}
	if got := reg.Counter("fleet.streams.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}

	// Release the slot; the tenant admits again.
	if _, err := hold.Write(raw[68:]); err != nil {
		t.Fatal(err)
	}
	hold.(*net.TCPConn).CloseWrite()
	waitFor(t, func() bool { return reg.Gauge("fleet.streams.open").Value() == 0 })
	if _, err := sendTrace(t, addr, raw); err != nil {
		t.Fatalf("stream after slot release: %v", err)
	}
}

// TestFleetServerShedsUnderRate: a rate-limited tenant's oversized burst is
// partially shed; the summary explains every sent frame as admitted or
// shed (zero unexplained loss) and flags the overload, while an unmetered
// tenant on the same server is untouched.
func TestFleetServerShedsUnderRate(t *testing.T) {
	now := time.Unix(5000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	addr, shutdown := startFleetServer(t, fleet.Config{
		Workers: 2, Metrics: obs.Discard, Now: clock,
		Tenants: map[uint32]fleet.TenantConfig{1: {FrameRate: 1e-9, Burst: 10}},
	}, parityScorer{})
	defer shutdown()

	const n = 100
	sum, err := sendTrace(t, addr, syntheticTrace(t, 16, n, 1))
	if !errors.Is(err, stream.ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload for a partially shed stream", err)
	}
	if sum.Frames != 10 || sum.Shed != n-10 || !sum.Overload {
		t.Fatalf("summary %+v, want 10 admitted / %d shed", sum, n-10)
	}
	if int64(sum.Frames)+sum.Shed != n {
		t.Fatalf("unexplained loss: %d+%d != %d", sum.Frames, sum.Shed, n)
	}

	// Tenant 2 is unmetered: full admission on the same server.
	sum2, err := sendTrace(t, addr, syntheticTrace(t, 16, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Frames != n || sum2.Shed != 0 {
		t.Fatalf("unmetered tenant summary %+v", sum2)
	}
}

// TestFleetServerConcurrentStreams is the in-process mini-soak: many
// concurrent streams across tenants through one small pool, every frame
// accounted for, per-tenant monitors registered, no stalls.
func TestFleetServerConcurrentStreams(t *testing.T) {
	const (
		streams = 32
		frames  = 200
		tenants = 4
	)
	health := stream.NewHealthRegistry()
	cfg := fleet.Config{
		Workers:     4,
		StreamQueue: 64,
		Metrics:     obs.Discard,
		Estimator:   stream.EstimatorConfig{Window: 50, Health: health},
	}
	addr, shutdown := startFleetServer(t, cfg, parityScorer{})

	var wg sync.WaitGroup
	sums := make([]stream.Summary, streams)
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := syntheticTrace(t, 16, frames, uint32(i%tenants))
			sums[i], errs[i] = sendTrace(t, addr, raw)
		}(i)
	}
	wg.Wait()
	shutdown()

	for i := 0; i < streams; i++ {
		if errs[i] != nil && !errors.Is(errs[i], stream.ErrOverload) {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if got := int64(sums[i].Frames) + sums[i].Shed; got != frames {
			t.Fatalf("stream %d: %d admitted + %d shed != %d sent", i, sums[i].Frames, sums[i].Shed, frames)
		}
		if sums[i].Stream == "" {
			t.Fatalf("stream %d: no monitor name in summary %+v", i, sums[i])
		}
		if health.Get(sums[i].Stream) == nil {
			t.Fatalf("stream %d: monitor %q not in health registry", i, sums[i].Stream)
		}
	}
	// Every connection registers its own monitor.
	if len(health.Streams()) != streams {
		t.Fatalf("registry has %d monitors, want %d", len(health.Streams()), streams)
	}
}
