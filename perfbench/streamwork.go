package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"caliqec/internal/decoder"
	"caliqec/internal/fleet"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/sim"
	"caliqec/internal/stream"
)

// The recorded stream both stream workloads decode: a d=5 square memory
// experiment, 5 rounds at p=3e-3, monitored with the CLI's default drift
// window.
const (
	streamDistance = 5
	streamRounds   = 5
	streamRate     = 3e-3
	driftWindow    = 1000
)

// recording is a trace recorded in set-up with its decoder and oracle.
type recording struct {
	raw     []byte
	header  stream.Header
	fd      *mc.FrameDecoder
	frames  int
	oracle  int // failures mc.Evaluate counts on the recorded spec
	dems    demStats
	sampled int64 // shots sampled under the set-up's "sim.sample" span
}

// record builds the circuit and its decoder, records the trace with
// stream.Record and computes its oracle with mc.Evaluate. With a tracer in
// ctx it also times DEM extraction, graph construction and the frame
// sampler on this circuit, since the timed phase never calls them.
func record(ctx context.Context, cfg config) (*recording, error) {
	plain := obs.WithTracer(ctx, nil)
	c, err := memoryCircuit(ctx, streamDistance, streamRounds, streamRate)
	if err != nil {
		return nil, err
	}
	rec := &recording{frames: cfg.size.streamFrames}
	eng := mc.New(mc.Options{})
	if rec.fd, err = eng.FrameDecoder(c, decoder.KindUnionFind); err != nil {
		return nil, err
	}
	spec := mc.Spec{
		Circuit: c, Decoder: decoder.KindUnionFind, Shots: rec.frames, Rounds: streamRounds,
		Seed: mix(cfg.seed, 0x5eed), Workers: cfg.workers,
	}
	var buf bytes.Buffer
	_, span := obs.StartSpan(ctx, "stream.record")
	n, err := stream.Record(plain, spec, &buf)
	span.End()
	if err != nil {
		return nil, err
	}
	if n != rec.frames {
		return nil, fmt.Errorf("recorded %d of %d frames", n, rec.frames)
	}
	rec.raw = buf.Bytes()
	r, err := stream.NewReader(bytes.NewReader(rec.raw))
	if err != nil {
		return nil, err
	}
	rec.header = r.Header()
	_, span = obs.StartSpan(ctx, "mc.reference")
	res, err := eng.Evaluate(plain, spec)
	span.End()
	if err != nil {
		return nil, err
	}
	if res.Shots != rec.frames {
		return nil, fmt.Errorf("oracle evaluated %d of %d shots", res.Shots, rec.frames)
	}
	rec.oracle = res.Failures
	if obs.TracerFrom(ctx) != nil {
		mech, err := extract(ctx, c)
		if err != nil {
			return nil, err
		}
		rec.dems = demStats{extracted: 1, mechanisms: int64(mech)}
		_, span := obs.StartSpan(ctx, "sim.sample")
		err = mc.SampleChunks(plain, spec, func(b sim.BatchResult) error {
			rec.sampled += int64(b.Shots)
			return nil
		})
		span.End()
		if err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// stageBlock is how many frames each stage span of a stage-by-stage
// re-execution covers.
const stageBlock = 256

// stages re-executes one stream's decode path outside any pipeline, block
// by block: Reader.Next, Frame.Syndrome, FrameDecoder.ScoreFrame and
// Monitor.Observe each run over a block of frames under their own span
// ("stream.read", "stream.unpack", "decoder.decode", "stream.monitor"). The
// monitor is a fresh one configured as the workload's.
func (rec *recording) stages(ctx context.Context) (tally, error) {
	var t tally
	r, err := stream.NewReader(bytes.NewReader(rec.raw))
	if err != nil {
		return t, err
	}
	mon := stream.NewMonitor(stream.EstimatorConfig{Window: driftWindow, Stream: "stages"}, rec.fd, rec.header, nil)
	frames := make([]stream.Frame, stageBlock)
	for i := range frames {
		frames[i].Packed = make([]byte, 0, stream.FrameBytes(rec.header.NumDetectors))
	}
	syn := make([][]int, stageBlock)
	failed := make([]bool, stageBlock)
	var f stream.Frame
	for done := false; !done; {
		_, span := obs.StartSpan(ctx, "stream.read")
		n := 0
		for ; n < stageBlock; n++ {
			err = r.Next(&f)
			if err != nil {
				break
			}
			frames[n].Obs = f.Obs
			frames[n].Packed = append(frames[n].Packed[:0], f.Packed...)
		}
		span.End()
		if err == io.EOF {
			done = true
		} else if err != nil {
			return t, err
		}
		_, span = obs.StartSpan(ctx, "stream.unpack")
		for i := 0; i < n; i++ {
			syn[i] = frames[i].Syndrome(syn[i][:0])
		}
		span.End()
		_, span = obs.StartSpan(ctx, "decoder.decode")
		for i := 0; i < n; i++ {
			failed[i] = rec.fd.ScoreFrame(syn[i], frames[i].Obs)
		}
		span.End()
		_, span = obs.StartSpan(ctx, "stream.monitor")
		for i := 0; i < n; i++ {
			mon.Observe(t.shots+int64(i), syn[i], failed[i])
		}
		span.End()
		for i := 0; i < n; i++ {
			if failed[i] {
				t.failures++
			}
			t.defects += int64(len(syn[i]))
		}
		t.shots += int64(n)
		t.decodes += int64(n)
	}
	mon.Finalize()
	if t.shots != int64(rec.frames) || t.failures != int64(rec.oracle) {
		return t, fmt.Errorf("stages read %d frames with %d failures, want %d with %d: %w",
			t.shots, t.failures, rec.frames, rec.oracle, errOracle)
	}
	return t, nil
}

// streamLayers fills the per-layer metrics the stream workloads share: the
// set-up's DEM and sampler times, and the per-frame stage times of the
// stage-by-stage re-executions (t).
func (rec *recording) streamLayers(sp spanTable, t tally, out map[string]float64) {
	rec.dems.layers(sp, out)
	out["sim.sample_ns_per_shot"] = ratio(sp.ns("sim.sample"), float64(rec.sampled))
	frames := float64(t.shots)
	out["stream.read_ns_per_frame"] = ratio(sp.ns("stream.read"), frames)
	out["stream.unpack_ns_per_frame"] = ratio(sp.ns("stream.unpack"), frames)
	out["stream.monitor_ns_per_frame"] = ratio(sp.ns("stream.monitor"), frames)
	out["decoder.decode_ns"] = ratio(sp.ns("decoder.decode"), float64(t.decodes))
	out["decoder.decodes_per_shot"] = ratio(float64(t.decodes), frames)
	out["decoder.defects_per_decode"] = ratio(float64(t.defects), float64(t.decodes))
}

// ---- replay ----------------------------------------------------------

// replay runs stream.Replay over the recorded trace in memory, drift
// monitor on, one full replay per verdict.
type replay struct {
	cfg    config
	rec    *recording
	health *stream.HealthRegistry
	trace  tally
}

func setupReplay(ctx context.Context, cfg config) (instance, error) {
	rec, err := record(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &replay{cfg: cfg, rec: rec, health: stream.NewHealthRegistry()}, nil
}

func (s *replay) run(ctx context.Context, ph *phase) error {
	plain := obs.WithTracer(ctx, nil)
	opt := stream.PipelineOptions{
		Workers:   s.cfg.workers,
		Estimator: stream.EstimatorConfig{Window: driftWindow, Health: s.health},
	}
	return ph.loop(ctx, func(ctx context.Context, k int) (int64, func() error, error) {
		r, err := stream.NewReader(bytes.NewReader(s.rec.raw))
		if err != nil {
			return 0, nil, err
		}
		_, span := obs.StartSpan(ctx, "stream.replay")
		st, err := stream.Replay(plain, r, s.rec.fd, opt)
		span.End()
		return int64(st.Frames), func() error {
			if st.Frames != s.rec.frames || st.Failures != s.rec.oracle || st.Truncated {
				return fmt.Errorf("replayed %d frames with %d failures, want %d with %d: %w",
					st.Frames, st.Failures, s.rec.frames, s.rec.oracle, errOracle)
			}
			if obs.TracerFrom(ctx) == nil {
				return nil
			}
			t, err := s.rec.stages(ctx)
			s.trace.add(t)
			return err
		}, err
	})
}

func (s *replay) layers(sp spanTable, traced *phase) map[string]float64 {
	out := map[string]float64{}
	s.rec.streamLayers(sp, s.trace, out)
	// The traced pass's ops are the Replay calls alone (the re-execution
	// runs in the checks), so its CPU per frame is Replay's.
	replayNs := ratio(float64(traced.use.cpu.Nanoseconds()), float64(traced.shots))
	staged := out["stream.read_ns_per_frame"] + out["stream.unpack_ns_per_frame"] +
		out["decoder.decode_ns"]*out["decoder.decodes_per_shot"] + out["stream.monitor_ns_per_frame"]
	out["stream.pipeline_ns_per_frame"] = replayNs - staged
	out["stream.health_streams"] = float64(len(s.health.Streams()))
	out["trace.coverage"] = ratio(staged, replayNs)
	return out
}

func (s *replay) close() error { return nil }

// ---- serve-fleet -----------------------------------------------------

// fleetClients is the number of closed-loop clients, one per tenant.
const fleetClients = 2

// serve runs a fleet server on loopback TCP. Each of fleetClients
// closed-loop clients sends the recorded trace under its own tenant, one
// stream per fresh connection, and sends the next only after the summary
// arrives.
type serve struct {
	rec    *recording
	traces [][]byte // the recording re-tenanted, one per client
	health *stream.HealthRegistry
	srv    *fleet.Server
	addr   string
	stop   context.CancelFunc
	served chan error

	// Set in a traced run only: probes around the socket reads, the pool's
	// scorer and the client writes, switched on for the traced pass.
	probe *probes
	trace tally
}

func setupServe(ctx context.Context, cfg config) (instance, error) {
	rec, err := record(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &serve{rec: rec, health: stream.NewHealthRegistry()}
	for c := 0; c < fleetClients; c++ {
		h := rec.header
		h.Tenant = uint32(1 + c)
		var hb bytes.Buffer
		if _, err := stream.NewWriter(&hb, h); err != nil {
			return nil, err
		}
		s.traces = append(s.traces, append(hb.Bytes(), rec.raw[hb.Len():]...))
	}
	catalog := stream.NewCatalog()
	catalog.Register(rec.header.Fingerprint, rec.fd)
	resolve := catalog.Resolve
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if obs.TracerFrom(ctx) != nil {
		s.probe = &probes{}
		ln = &countingListener{Listener: ln, p: s.probe}
		resolve = func(h stream.Header) (stream.FrameScorer, error) {
			sc, err := catalog.Resolve(h)
			if err != nil {
				return nil, err
			}
			ts := &timedScorer{FrameDecoder: sc.(*mc.FrameDecoder), on: &s.probe.on}
			s.probe.mu.Lock()
			s.probe.scorers = append(s.probe.scorers, ts)
			s.probe.mu.Unlock()
			return ts, nil
		}
	}
	// StreamQueue holds a whole stream, so admission is deterministic and
	// nothing sheds; tenants 1 and 2 take the default weight.
	s.srv = fleet.NewServer(fleet.Config{
		Workers:     cfg.workers,
		StreamQueue: rec.frames,
		Estimator:   stream.EstimatorConfig{Window: driftWindow, Health: s.health},
	}, resolve)
	s.addr = ln.Addr().String()
	sctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(sctx, ln) }()
	return s, nil
}

// run drives the clients until the budget has passed on the wall clock;
// streams in flight at the deadline complete and count. The pass is cut
// into blockLen windows of wall time: process CPU is read at every window
// edge, and each stream's frames are spread over the windows its round
// trip overlaps.
func (s *serve) run(ctx context.Context, ph *phase) error {
	traced := obs.TracerFrom(ctx) != nil
	if s.probe != nil {
		s.probe.on.Store(traced)
		defer s.probe.on.Store(false)
	}
	type roundTrip struct {
		start, end time.Time
		frames     int64
	}
	type clientResult struct {
		trips    []roundTrip
		problems []error
	}
	results := make([]clientResult, fleetClients)
	type tick struct {
		at  time.Time
		cpu time.Duration
	}
	u0 := readUsage()
	ticks := []tick{{time.Now(), u0.cpu}}
	start := ticks[0].at
	deadline := start.Add(ph.budget)

	stopTicks, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		tk := time.NewTicker(blockLen)
		defer tk.Stop()
		for {
			select {
			case <-stopTicks:
				return
			case at := <-tk.C:
				ticks = append(ticks, tick{at, readUsage().cpu})
			}
		}
	}()
	// The live heap is read with every client between streams, once each
	// has made its share of heapAfter round trips (or has stopped): the
	// last client to arrive reads it, the others wait for it.
	var (
		wg        sync.WaitGroup
		heapMu    sync.Mutex
		arrived   int
		heapReady = make(chan struct{})
		heapMB    float64
	)
	arrive := func() {
		heapMu.Lock()
		arrived++
		last := arrived == fleetClients
		heapMu.Unlock()
		if last {
			heapMB = heapLiveMB()
			close(heapReady)
		}
		<-heapReady
	}
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			arrivedHere := false
			defer func() {
				if !arrivedHere {
					arrive()
				}
			}()
			for first := true; first || time.Now().Before(deadline); first = false {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				frames, err := s.send(ctx, c)
				res.trips = append(res.trips, roundTrip{t0, time.Now(), frames})
				if !arrivedHere && len(res.trips) == heapAfter/fleetClients {
					arrivedHere = true
					arrive()
				}
				if err != nil {
					// A failed round trip on loopback means the serving
					// path is broken; this client stops.
					res.problems = append(res.problems, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ph.heapMB = heapMB
	close(stopTicks)
	<-ticked
	end := time.Now()
	ticks = append(ticks, tick{end, readUsage().cpu})
	ph.elapsed = end.Sub(start)
	ph.use = readUsage().sub(u0)
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		var frames float64
		for _, res := range results {
			for _, rt := range res.trips {
				lo, hi := rt.start, rt.end
				if lo.Before(a.at) {
					lo = a.at
				}
				if hi.After(b.at) {
					hi = b.at
				}
				if hi.After(lo) {
					frames += float64(rt.frames) * float64(hi.Sub(lo)) / float64(rt.end.Sub(rt.start))
				}
			}
		}
		ph.addBlock(block{int64(frames + 0.5), b.at.Sub(a.at), b.cpu - a.cpu}, i == len(ticks)-1)
	}
	for _, res := range results {
		for _, rt := range res.trips {
			ph.verdicts = append(ph.verdicts, rt.end.Sub(rt.start))
			ph.shots += rt.frames
		}
		ph.attempted += len(res.trips)
		for _, err := range res.problems {
			ph.fail(err)
		}
	}
	if traced {
		// Stage-by-stage re-execution of the served stream, after the
		// serving pass so it does not compete with it.
		for i := 0; i < fleetClients; i++ {
			t, err := s.rec.stages(ctx)
			if err != nil {
				return err
			}
			s.trace.add(t)
		}
	}
	return nil
}

// send streams client c's trace over a fresh connection and checks the
// summary against the oracle. It returns the frames decoded.
func (s *serve) send(ctx context.Context, c int) (int64, error) {
	ctx, span := obs.StartSpan(ctx, "verdict")
	defer span.End()
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return 0, err
	}
	var rw io.ReadWriter = conn.(*net.TCPConn)
	if s.probe != nil {
		rw = &timedConn{TCPConn: conn.(*net.TCPConn), p: s.probe}
	}
	_, send := obs.StartSpan(ctx, "net.send")
	sum, err := stream.SendTrace(rw, bytes.NewReader(s.traces[c]))
	send.End()
	if err != nil {
		return int64(sum.Frames), err
	}
	if sum.Frames != s.rec.frames || sum.Shed != 0 || sum.Failures != s.rec.oracle || sum.Truncated || sum.Error != "" {
		return int64(sum.Frames), fmt.Errorf("tenant %d: %d frames (%d shed) with %d failures, want %d with %d: %w",
			sum.Tenant, sum.Frames, sum.Shed, sum.Failures, s.rec.frames, s.rec.oracle, errOracle)
	}
	return int64(sum.Frames), nil
}

func (s *serve) layers(sp spanTable, traced *phase) map[string]float64 {
	out := map[string]float64{}
	s.rec.streamLayers(sp, s.trace, out)
	reads, readNs, scored, scoreNs := s.probe.totals()
	frames := float64(traced.shots)
	// Decoding in the pool itself, through the scorers the server resolved.
	out["decoder.decode_ns"] = ratio(float64(scoreNs), float64(scored))
	out["decoder.decodes_per_shot"] = ratio(float64(scored), frames)
	out["net.reads_per_frame"] = ratio(float64(reads), frames)
	out["net.read_ns_per_frame"] = ratio(float64(readNs), frames)
	out["net.write_ns_per_frame"] = ratio(float64(s.probe.writeNs.Load()), frames)
	out["fleet.decode_busy_share"] = ratio(float64(scoreNs),
		float64(traced.elapsed.Nanoseconds())*float64(s.srv.Pool().Workers()))
	out["stream.health_streams"] = float64(len(s.health.Streams()))
	// Share of the serving pass's CPU that the server-side stages explain:
	// socket reads, decoding, and unpacking plus monitoring per frame.
	server := float64(readNs+scoreNs) +
		frames*(out["stream.unpack_ns_per_frame"]+out["stream.monitor_ns_per_frame"])
	out["trace.coverage"] = ratio(server, float64(traced.use.cpu.Nanoseconds()))
	return out
}

// close stops the server and waits for Serve to drain and return.
func (s *serve) close() error {
	s.stop()
	if err := <-s.served; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// probes counts and times the serving path's boundaries in a traced run.
// Each connection and each resolved scorer keeps its own counters, so the
// probes add no shared cache line to the hot path; every probe is inert
// until on is set.
type probes struct {
	on      atomic.Bool
	writeNs atomic.Int64 // client-side writes

	mu      sync.Mutex
	conns   []*countingConn
	scorers []*timedScorer
}

// totals sums the per-connection and per-scorer counters.
func (p *probes) totals() (reads, readNs, scored, scoreNs int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		reads += c.reads.Load()
		readNs += c.readNs.Load()
	}
	for _, s := range p.scorers {
		scored += s.scored.Load()
		scoreNs += s.scoreNs.Load()
	}
	return reads, readNs, scored, scoreNs
}

// countingListener counts and times the server's socket reads.
type countingListener struct {
	net.Listener
	p *probes
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, on: &l.p.on}
	l.p.mu.Lock()
	l.p.conns = append(l.p.conns, cc)
	l.p.mu.Unlock()
	return cc, nil
}

type countingConn struct {
	net.Conn
	on            *atomic.Bool
	reads, readNs atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Read(b)
	}
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.readNs.Add(time.Since(t0).Nanoseconds())
	c.reads.Add(1)
	return n, err
}

// timedConn times a client's writes; it keeps the TCP half-close
// stream.SendTrace needs.
type timedConn struct {
	*net.TCPConn
	p *probes
}

func (c *timedConn) Write(b []byte) (int, error) {
	if !c.p.on.Load() {
		return c.TCPConn.Write(b)
	}
	t0 := time.Now()
	n, err := c.TCPConn.Write(b)
	c.p.writeNs.Add(time.Since(t0).Nanoseconds())
	return n, err
}

// timedScorer times the pool's ScoreFrame calls for one stream. Embedding
// keeps the detector attribution the drift monitor reads from the decoder.
type timedScorer struct {
	*mc.FrameDecoder
	on              *atomic.Bool
	scored, scoreNs atomic.Int64
}

func (s *timedScorer) ScoreFrame(syndrome []int, actual uint64) bool {
	if !s.on.Load() {
		return s.FrameDecoder.ScoreFrame(syndrome, actual)
	}
	t0 := time.Now()
	failed := s.FrameDecoder.ScoreFrame(syndrome, actual)
	s.scoreNs.Add(time.Since(t0).Nanoseconds())
	s.scored.Add(1)
	return failed
}
