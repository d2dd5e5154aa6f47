package main

import (
	"bufio"
	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/mc"
	"caliqec/internal/stream"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
)

// frameDecoder returns the decoder replay and serve score c's frames with:
// whole-shot union-find, or a sliding round window when window > 0.
func frameDecoder(eng *mc.Engine, c *circuit.Circuit, window int) (*mc.FrameDecoder, error) {
	if window > 0 {
		return eng.WindowedFrameDecoder(c, window)
	}
	return eng.FrameDecoder(c, decoder.KindUnionFind)
}

func runRecord(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("record", stderr)
	tp := topoFlag(fs)
	d := fs.Int("d", 3, "code distance")
	p := fs.Float64("p", 1e-3, "physical error rate")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	shots := fs.Int("shots", 20000, "shots to record")
	seed := fs.Uint64("seed", 1, "random seed (stored in the trace header)")
	out := fs.String("o", "trace.bin", "output trace file")
	s := addSessionFlags(fs, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ctx, err = s.start(ctx, stderr)
	if err != nil {
		return err
	}
	defer s.finish(&err)
	c, r, _, err := memoryCircuit(*tp, *d, *rounds, *p, false)
	if err != nil {
		return err
	}
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: *shots, Rounds: r, Seed: *seed}
	var n int
	if err := writeFile(*out, func(w io.Writer) (err error) {
		n, err = stream.Record(ctx, spec, w)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d shots of %v d=%d p=%.3g rounds=%d (fingerprint %x) to %s\n",
		n, *tp, *d, *p, r, c.Fingerprint(), *out)
	return nil
}

func runReplay(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("replay", stderr)
	tp := topoFlag(fs)
	d := fs.Int("d", 3, "code distance the trace was recorded at")
	p := fs.Float64("p", 1e-3, "physical error rate the trace was recorded at")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	workers := fs.Int("workers", 0, "decode workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "frames read ahead of the decoders, queued or decoding (0 = 256)")
	window := fs.Int("window", 0, "decode through a sliding round window of this many rounds (0 = whole-shot); resident decode state is O(window)")
	check := fs.Bool("check", false, "re-run the in-process evaluation from the trace's seed metadata and fail on any count mismatch")
	to := fs.String("to", "", "stream the trace to a caliqec serve instance at this TCP address instead of decoding locally")
	s := addSessionFlags(fs, true)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: caliqec replay [flags] <trace file>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	ctx, err = s.start(ctx, stderr)
	if err != nil {
		return err
	}
	defer s.finish(&err)

	if *to != "" {
		var dl net.Dialer
		conn, err := dl.DialContext(ctx, "tcp", *to)
		if err != nil {
			return err
		}
		defer conn.Close()
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		defer stop()
		sum, err := stream.SendTrace(conn, bufio.NewReader(f))
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(sum)
	}

	c, r, _, err := memoryCircuit(*tp, *d, *rounds, *p, false)
	if err != nil {
		return err
	}
	tr, err := stream.NewReader(bufio.NewReader(f))
	if err != nil {
		return err
	}
	h := tr.Header()
	if h.Fingerprint != c.Fingerprint() {
		return fmt.Errorf("trace fingerprint %x does not match %v d=%d p=%.3g rounds=%d (%x); pass the flags the trace was recorded with",
			h.Fingerprint, *tp, *d, *p, r, c.Fingerprint())
	}
	eng := mc.New(mc.Options{})
	fd, err := frameDecoder(eng, c, *window)
	if err != nil {
		return err
	}
	if fd.Window() > 0 {
		fmt.Fprintf(stdout, "windowed decoding: W=%d of %d rounds\n", fd.Window(), fd.NumRounds())
	}
	stats, rerr := stream.Replay(ctx, tr, fd, stream.PipelineOptions{Workers: *workers, QueueDepth: *queue, Estimator: s.est})
	if rerr != nil && !errors.Is(rerr, stream.ErrTruncated) {
		return rerr
	}
	ler := 0.0
	if stats.Frames > 0 {
		ler = float64(stats.Failures) / float64(stats.Frames)
	}
	fmt.Fprintf(stdout, "replayed %d frames: %d failures, LER %.4g", stats.Frames, stats.Failures, ler)
	if stats.Truncated {
		fmt.Fprintf(stdout, " (trace truncated after %d of %d promised frames)", stats.Frames, h.Shots)
	}
	fmt.Fprintln(stdout)
	if s.est.Window > 0 {
		fmt.Fprintf(stdout, "drift: %d events over %d-frame windows", stats.DriftEvents, s.est.Window)
		if mon := s.est.Health.Get("replay"); mon != nil {
			if qs := mon.Snapshot().DriftingQubits; len(qs) > 0 {
				fmt.Fprintf(stdout, "; drifting qubits %v", qs)
			}
		}
		fmt.Fprintln(stdout)
	}

	if *check {
		if stats.Truncated {
			return fmt.Errorf("-check: cannot verify a truncated trace")
		}
		if fd.Window() > 0 && fd.Window() < fd.NumRounds() {
			return fmt.Errorf("-check: a sliding window (W=%d < %d rounds) is not bit-identical to the whole-shot evaluation; use -window 0 or >= %d", fd.Window(), fd.NumRounds(), fd.NumRounds())
		}
		if h.Shots == 0 {
			return fmt.Errorf("-check: trace header carries no shot count")
		}
		want, err := eng.Evaluate(ctx, mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: int(h.Shots), Rounds: r, Seed: h.Seed,
		})
		if err != nil {
			return err
		}
		if want.Failures != stats.Failures || want.Shots != stats.Frames {
			return fmt.Errorf("-check FAILED: replay counted %d failures over %d frames, in-process evaluation %d over %d",
				stats.Failures, stats.Frames, want.Failures, want.Shots)
		}
		fmt.Fprintf(stdout, "check ok: in-process evaluation reproduces %d failures over %d shots\n", want.Failures, want.Shots)
	}
	return nil
}

func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("serve", stderr)
	tp := topoFlag(fs)
	dList := fs.String("d", "3", "code distance, or comma-separated distances, to serve decoders for")
	p := fs.Float64("p", 1e-3, "physical error rate of the served decoding graphs")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	addr := fs.String("addr", "127.0.0.1:8790", "TCP listen address")
	window := fs.Int("window", 0, "serve sliding-window decoders with this round window (0 = whole-shot); resident decode state is O(window)")
	sf := addServeFlags(fs)
	s := addSessionFlags(fs, true)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ds, err := parseDistances(*dList)
	if err != nil {
		return err
	}
	ctx, err = s.start(ctx, stderr)
	if err != nil {
		return err
	}
	defer s.finish(&err)

	eng := mc.New(mc.Options{})
	cat := stream.NewCatalog()
	for _, d := range ds {
		c, r, _, err := memoryCircuit(*tp, d, *rounds, *p, false)
		if err != nil {
			return err
		}
		fd, err := frameDecoder(eng, c, *window)
		if err != nil {
			return err
		}
		mode := ""
		if fd.Window() > 0 {
			mode = fmt.Sprintf(" window=%d/%d", fd.Window(), fd.NumRounds())
		}
		cat.Register(fd.CircuitFingerprint(), fd)
		fmt.Fprintf(stdout, "serving %v d=%d p=%.3g rounds=%d%s: fingerprint %x\n", *tp, d, *p, r, mode, fd.CircuitFingerprint())
	}
	cfg, err := sf.config(s.est)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := stream.NewServer(cfg, cat.Resolve)
	fmt.Fprintf(stdout, "listening on %s (%d circuits, %d decode workers, %v backpressure); Ctrl-C drains and exits\n",
		ln.Addr(), cat.Len(), srv.Pool().Workers(), cfg.Backpressure)
	return srv.Serve(ctx, ln)
}

// serveFlags bundles the serve flags that configure the decode pool.
type serveFlags struct {
	fleet         *bool
	workers       *int
	queue         *int
	quantum       *int
	tenantRate    *float64
	tenantBurst   *float64
	tenantStreams *int
	tenantWeights *string
}

func addServeFlags(fs *flag.FlagSet) serveFlags {
	return serveFlags{
		fleet:         fs.Bool("fleet", false, "shed frames on a full stream queue instead of stalling the socket, and apply the -tenant-* admission and scheduling flags"),
		workers:       fs.Int("workers", 0, "decode workers shared by every connection (0 = GOMAXPROCS); the whole server's decode concurrency"),
		queue:         fs.Int("queue", 0, "per-stream frame queue bound (0 = 256); a full queue stalls the socket, or sheds with -fleet"),
		quantum:       fs.Int("quantum", 0, "deficit-round-robin quantum in frames (0 = 64)"),
		tenantRate:    fs.Float64("tenant-rate", 0, "default per-tenant admitted-frame budget in frames/s when -fleet is set (0 = unmetered)"),
		tenantBurst:   fs.Float64("tenant-burst", 0, "default per-tenant token-bucket burst in frames when -fleet is set (0 = one second of -tenant-rate)"),
		tenantStreams: fs.Int("tenant-streams", 0, "default per-tenant concurrent-stream cap when -fleet is set (0 = uncapped)"),
		tenantWeights: fs.String("tenant-weights", "", "per-tenant scheduling weights as id:weight[,id:weight...] when -fleet is set; unlisted tenants weigh 1"),
	}
}

// config builds the pool configuration the flags describe; est carries the
// drift flags through to the per-stream monitors. Without -fleet the pool
// blocks on a full queue and every tenant gets the default configuration.
func (sf serveFlags) config(est stream.EstimatorConfig) (stream.Config, error) {
	cfg := stream.Config{
		Workers:     *sf.workers,
		StreamQueue: *sf.queue,
		Quantum:     *sf.quantum,
		Estimator:   est,
	}
	if !*sf.fleet {
		return cfg, nil
	}
	weights, err := parseTenantWeights(*sf.tenantWeights)
	if err != nil {
		return stream.Config{}, err
	}
	cfg.Backpressure = stream.Shed
	cfg.Default = stream.TenantConfig{
		FrameRate:  *sf.tenantRate,
		Burst:      *sf.tenantBurst,
		MaxStreams: *sf.tenantStreams,
	}
	if len(weights) > 0 {
		cfg.Tenants = map[uint32]stream.TenantConfig{}
		for id, w := range weights {
			tc := cfg.Default
			tc.Weight = w
			cfg.Tenants[id] = tc
		}
	}
	return cfg, nil
}
