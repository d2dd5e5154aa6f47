package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// The tests below drive the subcommands in-process through dispatch, the
// function main hands os.Args to, and check the stdout lines CI parses.

// runCLI runs one command line and returns its exit status and output.
func runCLI(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	status = dispatch(context.Background(), args, &out, &errOut)
	return status, out.String(), errOut.String()
}

// mustRun runs one command line and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	status, out, errOut := runCLI(t, args...)
	if status != 0 {
		t.Fatalf("caliqec %s: exit %d\nstderr:\n%s", strings.Join(args, " "), status, errOut)
	}
	return out
}

// traceFlags are the circuit flags of the trace recordTrace writes.
var traceFlags = []string{"-d", "3", "-p", "3e-3", "-rounds", "3"}

func withTraceFlags(cmd string, args ...string) []string {
	return append(append([]string{cmd}, traceFlags...), args...)
}

// recordTrace records the 20000-shot, seed-7 trace of traceFlags into a
// temporary directory and returns its path.
func recordTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	out := mustRun(t, withTraceFlags("record", "-shots", "20000", "-seed", "7", "-o", path)...)
	want := "recorded 20000 shots of square d=3 p=0.003 rounds=3 (fingerprint 7eced93a3e8440c3b008bc9194e46a28) to " + path + "\n"
	if out != want {
		t.Fatalf("record printed\n%q\nwant\n%q", out, want)
	}
	return path
}

// wideTrace copies the trace at path under a header that keeps the
// circuit's fingerprint but claims 32 detectors (the circuit has 24), with
// detector 27 fired in every frame.
func wideTrace(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	h.NumDetectors = 32
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	var f stream.Frame
	for {
		err := r.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFrame(append(append([]byte(nil), f.Packed...), 1<<3), f.Obs); err != nil {
			t.Fatal(err)
		}
	}
	wide := filepath.Join(t.TempDir(), "wide.bin")
	if err := os.WriteFile(wide, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return wide
}

// syncBuffer collects the output of a command running on another
// goroutine and wakes a test waiting for a line.
type syncBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // holds one token after a write nobody has seen
}

func newSyncBuffer() *syncBuffer { return &syncBuffer{wrote: make(chan struct{}, 1)} }

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.buf.Write(p)
	select {
	case b.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// background is a command running on its own goroutine, such as serve.
type background struct {
	stdout, stderr *syncBuffer
	cancel         context.CancelFunc
	done           chan struct{}
	status         int // valid once done is closed
}

func startCLI(t *testing.T, args ...string) *background {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b := &background{stdout: newSyncBuffer(), stderr: newSyncBuffer(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(b.done)
		b.status = dispatch(ctx, args, b.stdout, b.stderr)
	}()
	t.Cleanup(func() { b.stop(t) })
	return b
}

// await waits until re matches what the command wrote to out and returns
// re's first group.
func (b *background) await(t *testing.T, out *syncBuffer, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	timeout := time.After(time.Minute)
	for {
		if m := rx.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case <-out.wrote:
		case <-b.done:
			t.Fatalf("command exited %d before printing %q\nstderr:\n%s", b.status, re, b.stderr.String())
		case <-timeout:
			t.Fatalf("no %q within a minute\nstdout:\n%s", re, out.String())
		}
	}
}

// stop cancels the command, as an interrupt does, and returns its exit
// status once it has returned.
func (b *background) stop(t *testing.T) int {
	t.Helper()
	b.cancel()
	select {
	case <-b.done:
	case <-time.After(time.Minute):
		t.Fatal("command still running a minute after cancellation")
	}
	return b.status
}

// startServe runs serve on an ephemeral loopback port and returns it with
// the address it printed.
func startServe(t *testing.T, args ...string) (*background, string) {
	t.Helper()
	b := startCLI(t, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	return b, b.await(t, b.stdout, `listening on (\S+) `)
}

// TestCLIRecordReplay: a recorded trace replays to the in-process
// evaluation's failure count, through whole-shot decoding and through a
// window as wide as the shot, and a sliding window of 2 rounds counts its
// own pinned total.
func TestCLIRecordReplay(t *testing.T) {
	trace := recordTrace(t)
	const check = "check ok: in-process evaluation reproduces 142 failures over 20000 shots\n"
	cases := []struct {
		flags []string
		want  string
	}{
		{[]string{"-check"}, "replayed 20000 frames: 142 failures, LER 0.0071\n" + check},
		{[]string{"-window", "5", "-check"}, "windowed decoding: W=5 of 5 rounds\nreplayed 20000 frames: 142 failures, LER 0.0071\n" + check},
		{[]string{"-window", "2"}, "windowed decoding: W=2 of 5 rounds\nreplayed 20000 frames: 170 failures, LER 0.0085\n"},
	}
	for _, tc := range cases {
		if out := mustRun(t, withTraceFlags("replay", append(tc.flags, trace)...)...); out != tc.want {
			t.Errorf("replay %v printed\n%s\nwant\n%s", tc.flags, out, tc.want)
		}
	}
}

// TestCLIReplayDriftLog: the drift monitor stays silent on a steady trace,
// so the event log it appends to stays empty.
func TestCLIReplayDriftLog(t *testing.T) {
	trace := recordTrace(t)
	log := filepath.Join(t.TempDir(), "drift.jsonl")
	out := mustRun(t, withTraceFlags("replay", "-drift-window", "1000", "-drift-log", log, trace)...)
	if want := "replayed 20000 frames: 142 failures, LER 0.0071\ndrift: 0 events over 1000-frame windows\n"; out != want {
		t.Errorf("replay printed\n%s\nwant\n%s", out, want)
	}
	events, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("steady trace logged drift events:\n%s", events)
	}
}

// TestCLIServe: a trace sent to serve, with a blocking or a shedding pool,
// comes back with the local replay's counts and nothing shed; a trace whose
// header claims more detectors than the circuit has is rejected with the
// geometry error, not shed; cancellation makes serve drain and return nil.
func TestCLIServe(t *testing.T) {
	trace := recordTrace(t)
	wide := wideTrace(t, trace)
	rejected := obs.Default.Counter("stream.server.rejected")
	for _, mode := range [][]string{nil, {"-fleet", "-queue", "20000"}} {
		t.Run(strings.Join(append([]string{"serve"}, mode...), " "), func(t *testing.T) {
			srv, addr := startServe(t, append(traceFlags, mode...)...)
			var sum stream.Summary
			if err := json.Unmarshal([]byte(mustRun(t, "replay", "-to", addr, trace)), &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Frames != 20000 || sum.Failures != 142 || sum.Shed != 0 || sum.Error != "" {
				t.Errorf("served summary %+v, want 20000 frames, 142 failures, nothing shed", sum)
			}

			before := rejected.Value()
			if err := json.Unmarshal([]byte(mustRun(t, "replay", "-to", addr, wide)), &sum); err != nil {
				t.Fatal(err)
			}
			if want := "stream: trace geometry (32 detectors, 1 observables) does not match decoder (24, 1)"; sum.Error != want || sum.Overload {
				t.Errorf("wide trace summary %+v, want error %q and no overload", sum, want)
			}
			if n := rejected.Value() - before; n != 1 {
				t.Errorf("stream.server.rejected rose by %d, want 1", n)
			}
			if status := srv.stop(t); status != 0 {
				t.Fatalf("serve exited %d after cancellation\nstderr:\n%s", status, srv.stderr.String())
			}
		})
	}
}

// TestCLILoadgen: a small load-generator run against a rate-limited fleet
// server meets every contract loadgen checks.
func TestCLILoadgen(t *testing.T) {
	_, addr := startServe(t, "-fleet", "-d", "3", "-tenant-rate", "20000", "-tenant-burst", "2000")
	out := mustRun(t, "loadgen", "-addr", addr, "-d", "3", "-streams", "16", "-frames", "128", "-tenants", "4", "-timeout", "30s")
	if !strings.Contains(out, "\nloadgen ok: zero unexplained loss, no stalled streams") {
		t.Fatalf("loadgen printed\n%s", out)
	}
}

// TestCLIHealth: after one stream through a serve with -health-addr, the
// health command renders that stream's row from the bound address serve
// printed.
func TestCLIHealth(t *testing.T) {
	trace := recordTrace(t)
	srv, addr := startServe(t, append(traceFlags, "-health-addr", "127.0.0.1:0")...)
	health := srv.await(t, srv.stderr, `health server on http://(\S+)/health`)
	mustRun(t, "replay", "-to", addr, trace)
	out := mustRun(t, "health", "-addr", health)
	if !regexp.MustCompile(`(?m)^conn-1 +20000 `).MatchString(out) {
		t.Fatalf("health printed no conn-1 row with 20000 frames:\n%s", out)
	}
}

// TestCLIEndpoints: the -debug-addr and -health-addr listeners print the
// address they bound and are closed when the command returns; an address
// that cannot be bound fails the command before it does any work.
func TestCLIEndpoints(t *testing.T) {
	trace := recordTrace(t)
	replay := withTraceFlags("replay", "-health-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", trace)
	status, _, errOut := runCLI(t, replay...)
	if status != 0 {
		t.Fatalf("replay exited %d\nstderr:\n%s", status, errOut)
	}
	bound := regexp.MustCompile(`(?m)^(?:debug|health) server on http://(\S+?)/`).FindAllStringSubmatch(errOut, -1)
	if len(bound) != 2 {
		t.Fatalf("want a debug and a health server line, stderr:\n%s", errOut)
	}
	for _, m := range bound {
		if strings.HasSuffix(m[1], ":0") {
			t.Fatalf("printed the requested address %s, not the bound one", m[1])
		}
		ln, err := net.Listen("tcp", m[1])
		if err != nil {
			t.Fatalf("%s still bound after replay returned: %v", m[1], err)
		}
		ln.Close()
	}

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, args := range [][]string{
		withTraceFlags("replay", "-health-addr", busy.Addr().String(), trace),
		withTraceFlags("replay", "-health-addr", "127.0.0.1:99999", trace),
		{"replay", "-to", busy.Addr().String(), "-debug-addr", "127.0.0.1:99999", trace},
		{"simulate", "-debug-addr", "127.0.0.1:99999"},
		{"serve", "-addr", "127.0.0.1:0", "-debug-addr", busy.Addr().String()},
	} {
		status, out, errOut := runCLI(t, args...)
		if status != 1 || out != "" || !strings.Contains(errOut, "caliqec: ") || !strings.Contains(errOut, " server: listen tcp") {
			t.Errorf("caliqec %s: exit %d, stdout %q, stderr %q; want exit 1 on the bind error before any output",
				strings.Join(args, " "), status, out, errOut)
		}
	}
}

// TestCLIExitCodes: -h exits 0, a bad flag or subcommand 2, a failed
// command 1 with its error on stderr, a crafted trace no panic.
func TestCLIExitCodes(t *testing.T) {
	wide := wideTrace(t, recordTrace(t))
	cases := []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"simulate", "-h"}, 0, "Usage of simulate:"},
		{[]string{"instructions", "-h"}, 0, "Usage of instructions:"},
		{[]string{"simulate", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"record", "-topology", "cube"}, 2, `invalid value "cube" for flag -topology: unknown topology "cube"`},
		{[]string{"nosuch"}, 2, "usage: caliqec <characterize|schedule|run|simulate|record|replay|serve|loadgen|health|vet|instructions> [flags]\n"},
		{nil, 2, "usage: caliqec <"},
		{[]string{"simulate", "-shots", "0"}, 1, "caliqec: mc: batch spec 0: mc: shots must be positive, got 0\n"},
		{[]string{"record", "-d", "4", "-o", filepath.Join(t.TempDir(), "even.bin")}, 1, "caliqec: invalid distance 4 (want an odd integer ≥ 3)\n"},
		{[]string{"vet", "-d", "4"}, 1, "caliqec: invalid distance 4"},
		{withTraceFlags("replay", wide), 1, "caliqec: stream: trace geometry (32 detectors, 1 observables) does not match decoder (24, 1)\n"},
	}
	for _, tc := range cases {
		status, _, errOut := runCLI(t, tc.args...)
		if status != tc.status || !strings.Contains(errOut, tc.stderr) {
			t.Errorf("caliqec %s: exit %d, stderr\n%s\nwant exit %d with %q", strings.Join(tc.args, " "), status, errOut, tc.status, tc.stderr)
		}
	}
}

// TestCLISimulateGolden: the batched simulate output is byte-for-byte the
// committed golden for a fixed seed.
func TestCLISimulateGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "simulate_d3_p8e-3_seed5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, "simulate", "-d", "3", "-p", "8e-3", "-shots", "20000", "-seed", "5"); got != string(want) {
		t.Fatalf("simulate printed\n%s\nwant\n%s", got, want)
	}
}
