package stream_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// startTestServer spins a server on a loopback listener and returns the
// address, the cancel handle, and the Serve result channel.
func startTestServer(t *testing.T, resolve func(stream.Header) (stream.FrameScorer, error), cfg stream.Config) (net.Addr, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := stream.NewServer(cfg, resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	return ln.Addr(), cancel, served
}

// forEachBackpressure runs test once per pool policy, as subtests named
// after it. Tests that must not shed under Shed size StreamQueue to hold
// their whole stream.
func forEachBackpressure(t *testing.T, test func(t *testing.T, bp stream.Backpressure)) {
	for _, bp := range []stream.Backpressure{stream.Block, stream.Shed} {
		t.Run(bp.String(), func(t *testing.T) { test(t, bp) })
	}
}

// TestServerTruncatedFinalFrame: a client whose stream dies halfway through
// its last frame still gets a summary — every complete frame decoded, the
// truncation flagged, and no error (truncation is a stream property, not a
// server failure).
func TestServerTruncatedFinalFrame(t *testing.T) {
	forEachBackpressure(t, testServerTruncatedFinalFrame)
}

func testServerTruncatedFinalFrame(t *testing.T, bp stream.Backpressure) {
	spec := memorySpec(t, 3, 3e-3, 300)
	eng := mc.New(mc.Options{})
	raw := recordTrace(t, spec)
	fd, err := eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	cat := stream.NewCatalog()
	cat.Register(fd.CircuitFingerprint(), fd)
	addr, cancel, served := startTestServer(t, cat.Resolve, stream.Config{
		Workers: 2, StreamQueue: spec.Shots, Backpressure: bp, Metrics: obs.Discard,
	})
	defer cancel()

	frameLen := 4 + 8 + stream.FrameBytes(spec.Circuit.NumDetectors) + 4
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sum, err := stream.SendTrace(conn, bytes.NewReader(raw[:len(raw)-frameLen/2]))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Truncated {
		t.Fatalf("summary %+v: truncation not flagged", sum)
	}
	if sum.Frames != spec.Shots-1 {
		t.Fatalf("summary counted %d frames, want %d (all complete ones)", sum.Frames, spec.Shots-1)
	}
	if sum.Error != "" {
		t.Fatalf("truncation reported as server error: %q", sum.Error)
	}
	cancel()
	<-served
}

// TestServerConcurrentCancellation: with several clients stalled mid-stream
// (header and a few frames sent, write side still open) and one completed,
// cancelling the server must (a) have answered the completed client
// correctly, (b) unblock every stalled connection, and (c) return from
// Serve after the drain — no handler leak, no hang.
func TestServerConcurrentCancellation(t *testing.T) {
	forEachBackpressure(t, testServerConcurrentCancellation)
}

func testServerConcurrentCancellation(t *testing.T, bp stream.Backpressure) {
	spec := memorySpec(t, 3, 3e-3, 400)
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
	addr, cancel, served := startTestServer(t, cat.Resolve, stream.Config{
		Workers: 2, StreamQueue: spec.Shots, Backpressure: bp, Metrics: obs.Discard,
	})
	defer cancel()

	// One client runs to completion first; its summary must be exact.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := stream.SendTrace(conn, bytes.NewReader(raw))
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Error != "" || sum.Frames != spec.Shots || sum.Failures != want.Failures {
		t.Fatalf("completed client summary %+v, want %d frames / %d failures", sum, spec.Shots, want.Failures)
	}

	// Several clients stall mid-stream with their write sides open.
	const stalled = 3
	frameLen := 4 + 8 + stream.FrameBytes(spec.Circuit.NumDetectors) + 4
	partial := len(raw) - 10*frameLen - frameLen/2 // mid-frame, 10 frames short
	conns := make([]net.Conn, stalled)
	for i := range conns {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(raw[:partial]); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	// Let the server read into each stalled stream before cancelling, so
	// cancellation races against genuinely in-flight decodes.
	time.Sleep(50 * time.Millisecond)

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return with stalled connections in flight")
	}

	// Every stalled connection was closed server-side; reads unblock.
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadAll(c); err != nil {
				// Reset or deadline are both fine — the point is the read
				// ended; only a deadline timeout marks a leak.
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Errorf("client %d: read still blocked after shutdown", i)
				}
			}
		}(i, c)
	}
	wg.Wait()
}
