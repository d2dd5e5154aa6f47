package main

import (
	"bytes"
	"caliqec/internal/decoder"
	"caliqec/internal/mc"
	"caliqec/internal/stream"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// parseTenantWeights parses "id:weight[,id:weight...]" (e.g. "1:3,2:1").
func parseTenantWeights(s string) (map[uint32]int, error) {
	m := map[uint32]int{}
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("invalid tenant weight %q (want id:weight)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		w, werr := strconv.Atoi(kv[1])
		if err != nil || werr != nil || w <= 0 {
			return nil, fmt.Errorf("invalid tenant weight %q (want id:weight, weight >= 1)", part)
		}
		m[uint32(id)] = w
	}
	return m, nil
}

// reTenant rewrites a recorded trace's header with the given tenant ID,
// keeping every frame byte: the header is re-encoded (its CRC covers the
// tenant field), the frames are appended untouched.
func reTenant(raw []byte, h stream.Header, tenant uint32) ([]byte, error) {
	h.Tenant = tenant
	var hb bytes.Buffer
	if _, err := stream.NewWriter(&hb, h); err != nil {
		return nil, err
	}
	if hb.Len() > len(raw) {
		return nil, fmt.Errorf("trace shorter than its header")
	}
	out := make([]byte, 0, len(raw))
	out = append(out, hb.Bytes()...)
	return append(out, raw[hb.Len():]...), nil
}

// pacedReader throttles a trace to a target byte rate so a stream's offered
// load is sustained over the run instead of one TCP burst. Scheduling-weight
// fairness is only observable under sustained queue contention: an unpaced
// client dumps its whole trace before the pool drains anything, every queue
// clips at the same bound, and admitted shares flatten to equal no matter
// the weights.
type pacedReader struct {
	r           io.Reader
	bytesPerSec float64
	burst       int
	start       time.Time
	sent        int
}

func (p *pacedReader) Read(b []byte) (int, error) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	for {
		allowed := int(time.Since(p.start).Seconds()*p.bytesPerSec) + p.burst - p.sent
		if allowed > 0 {
			if allowed > len(b) {
				allowed = len(b)
			}
			n, err := p.r.Read(b[:allowed])
			p.sent += n
			return n, err
		}
		time.Sleep(time.Millisecond)
	}
}

// loadResult is one stream's outcome in the load generator.
type loadResult struct {
	tenant   uint32
	sum      stream.Summary
	err      error
	overload bool
	latency  time.Duration
}

// runLoadgen drives a fleet server with many concurrent streams and checks
// the multi-tenant contracts: every sent frame is accounted for (admitted or
// shed — zero unexplained loss), no stream stalls (per-stream deadline), the
// admitted-frame share of each tenant stays within 2x of its weight share
// under contention, and the p99 stream round-trip meets -slo-p99 when set.
// Any violation is an error.
func runLoadgen(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("loadgen", stderr)
	tp := topoFlag(fs)
	d := fs.Int("d", 3, "code distance the server decodes (must be in its -d list)")
	p := fs.Float64("p", 1e-3, "physical error rate of the served decoding graphs")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	seed := fs.Uint64("seed", 1, "random seed for the generated trace")
	addr := fs.String("addr", "127.0.0.1:8790", "fleet server address")
	streams := fs.Int("streams", 256, "concurrent streams to open")
	tenants := fs.Int("tenants", 4, "tenants to spread streams over (stream i uses tenant 1 + i%%tenants)")
	frames := fs.Int("frames", 512, "frames per stream")
	pace := fs.Float64("pace", 0, "per-stream send rate in frames/s (0 = full speed); pacing sustains the offered load so scheduling fairness is measurable")
	timeout := fs.Duration("timeout", 120*time.Second, "per-stream dial+send+summary deadline (a stalled socket fails the run)")
	sloP99 := fs.Duration("slo-p99", 0, "fail when the p99 stream round-trip exceeds this (0 = report only)")
	weights := fs.String("tenant-weights", "", "the server's id:weight[,...] map, for the fairness check; unlisted tenants weigh 1")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *streams <= 0 || *tenants <= 0 || *frames <= 0 {
		return fmt.Errorf("loadgen: -streams, -tenants and -frames must be positive")
	}
	wmap, err := parseTenantWeights(*weights)
	if err != nil {
		return err
	}

	// One base trace, re-headed per tenant so the server's admission sees
	// distinct tenant IDs over identical decode work.
	c, r, _, err := memoryCircuit(*tp, *d, *rounds, *p, false)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: *frames, Rounds: r, Seed: *seed}
	if _, err := stream.Record(ctx, spec, &buf); err != nil {
		return err
	}
	raw := buf.Bytes()
	hr, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	traces := make(map[uint32][]byte, *tenants)
	for i := 0; i < *tenants; i++ {
		id := uint32(1 + i)
		traces[id], err = reTenant(raw, hr.Header(), id)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "loadgen: %d streams x %d frames over %d tenants against %s (%v d=%d p=%.3g rounds=%d)\n",
		*streams, *frames, *tenants, *addr, *tp, *d, *p, r)

	results := make([]loadResult, *streams)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := uint32(1 + i%*tenants)
			res := loadResult{tenant: id}
			t0 := time.Now()
			defer func() {
				res.latency = time.Since(t0)
				results[i] = res
			}()
			dl := net.Dialer{Timeout: *timeout}
			conn, err := dl.DialContext(ctx, "tcp", *addr)
			if err != nil {
				res.err = err
				return
			}
			defer conn.Close()
			conn.SetDeadline(t0.Add(*timeout))
			var tr io.Reader = bytes.NewReader(traces[id])
			if *pace > 0 {
				// length prefix + observables + packed detectors + CRC
				frameLen := 4 + 8 + stream.FrameBytes(hr.Header().NumDetectors) + 4
				tr = &pacedReader{r: tr, bytesPerSec: *pace * float64(frameLen), burst: 64 * frameLen}
			}
			sum, err := stream.SendTrace(conn.(*net.TCPConn), tr)
			res.sum = sum
			switch {
			case err == nil:
			case errors.Is(err, stream.ErrOverload):
				res.overload = true
			default:
				res.err = err
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Aggregate per tenant and across the run.
	type tenantAgg struct {
		streams, ok, overload, failed int
		admitted, shed                int64
	}
	aggs := map[uint32]*tenantAgg{}
	var lats []time.Duration
	var hardErrs, lossErrs []string
	for i, res := range results {
		a := aggs[res.tenant]
		if a == nil {
			a = &tenantAgg{}
			aggs[res.tenant] = a
		}
		a.streams++
		lats = append(lats, res.latency)
		if res.err != nil {
			a.failed++
			if len(hardErrs) < 5 {
				hardErrs = append(hardErrs, fmt.Sprintf("stream %d (tenant %d): %v", i, res.tenant, res.err))
			}
			continue
		}
		if res.overload {
			a.overload++
		} else {
			a.ok++
		}
		a.admitted += int64(res.sum.Frames)
		a.shed += res.sum.Shed
		// The zero-unexplained-loss contract: admitted + shed covers every
		// frame the stream sent.
		if got := int64(res.sum.Frames) + res.sum.Shed; got != int64(*frames) {
			if len(lossErrs) < 5 {
				lossErrs = append(lossErrs, fmt.Sprintf("stream %d (tenant %d): %d admitted + %d shed != %d sent",
					i, res.tenant, res.sum.Frames, res.sum.Shed, *frames))
			}
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pctl := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		k := int(q*float64(len(lats))+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(lats) {
			k = len(lats) - 1
		}
		return lats[k]
	}
	p50, p99 := pctl(0.50), pctl(0.99)

	var ids []uint32
	var totAdmitted, totShed int64
	failed := 0
	for id, a := range aggs {
		ids = append(ids, id)
		totAdmitted += a.admitted
		totShed += a.shed
		failed += a.failed
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	weightOf := func(id uint32) int {
		if w, ok := wmap[id]; ok {
			return w
		}
		return 1
	}
	sumW := 0
	for _, id := range ids {
		sumW += weightOf(id)
	}

	fmt.Fprintf(stdout, "%-8s %8s %6s %9s %6s %12s %12s %9s %9s\n",
		"tenant", "streams", "ok", "overload", "fail", "admitted", "shed", "share", "weight")
	var fairErrs []string
	for _, id := range ids {
		a := aggs[id]
		share, expect := 0.0, float64(weightOf(id))/float64(sumW)
		if totAdmitted > 0 {
			share = float64(a.admitted) / float64(totAdmitted)
		}
		fmt.Fprintf(stdout, "%-8d %8d %6d %9d %6d %12d %12d %8.1f%% %8.1f%%\n",
			id, a.streams, a.ok, a.overload, a.failed, a.admitted, a.shed, 100*share, 100*expect)
		// Fairness only binds under contention: with nothing shed anywhere,
		// every tenant keeps 100% of what it sent and shares track offered
		// load, not scheduler weights.
		if totShed > 0 && totAdmitted > 0 {
			if share < expect/2-1e-9 || share > 2*expect+1e-9 {
				fairErrs = append(fairErrs, fmt.Sprintf(
					"tenant %d admitted share %.1f%% outside the 2x band of its %.1f%% weight share", id, 100*share, 100*expect))
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d streams in %v: %d frames admitted, %d shed, %.0f frames/s; latency p50 %v p99 %v\n",
		*streams, elapsed.Round(time.Millisecond), totAdmitted, totShed,
		float64(totAdmitted)/elapsed.Seconds(), p50.Round(time.Millisecond), p99.Round(time.Millisecond))

	var viol []string
	if failed > 0 {
		viol = append(viol, fmt.Sprintf("%d streams failed hard (first: %s)", failed, strings.Join(hardErrs, "; ")))
	}
	if len(lossErrs) > 0 {
		viol = append(viol, "unexplained frame loss: "+strings.Join(lossErrs, "; "))
	}
	viol = append(viol, fairErrs...)
	if *sloP99 > 0 && p99 > *sloP99 {
		viol = append(viol, fmt.Sprintf("p99 latency %v exceeds the %v SLO", p99.Round(time.Millisecond), *sloP99))
	}
	if len(viol) > 0 {
		return fmt.Errorf("loadgen violations:\n  %s", strings.Join(viol, "\n  "))
	}
	fmt.Fprintln(stdout, "loadgen ok: zero unexplained loss, no stalled streams"+map[bool]string{true: ", fairness within the 2x band", false: ""}[totShed > 0])
	return nil
}
