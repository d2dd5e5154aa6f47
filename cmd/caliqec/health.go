package main

import (
	"bufio"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// driftConfig wires the drift-observability flags shared by replay and
// serve: -drift-window enables the in-pipeline estimators, -health-addr
// serves /health (+ /metrics) over HTTP while the command runs, -drift-log
// appends structured drift events as JSON lines.
type driftConfig struct {
	healthAddr  string
	driftLog    string
	driftWindow int

	health *stream.HealthRegistry
	sink   *obs.EventSink
	logF   *os.File
	logBuf *bufio.Writer
}

func addDriftFlags(fs *flag.FlagSet) *driftConfig {
	c := &driftConfig{}
	fs.StringVar(&c.healthAddr, "health-addr", "", "serve /health, /health/stream/<id> and /metrics on this address while decoding")
	fs.StringVar(&c.driftLog, "drift-log", "", "append drift events to this file as JSON lines")
	fs.IntVar(&c.driftWindow, "drift-window", 0, "drift-estimator window in frames (0 = off; defaults to 1000 when -health-addr or -drift-log is set)")
	return c
}

// enabled reports whether any drift flag switched monitoring on.
func (c *driftConfig) enabled() bool {
	return c.driftWindow > 0 || c.healthAddr != "" || c.driftLog != ""
}

// start opens the event log and the health endpoint, returning the
// estimator config to hand to the pipeline (zero-valued when monitoring is
// off). Call finish (even on error paths) to flush and close the log.
func (c *driftConfig) start() (stream.EstimatorConfig, error) {
	if !c.enabled() {
		return stream.EstimatorConfig{}, nil
	}
	if c.driftWindow <= 0 {
		c.driftWindow = 1000
	}
	cfg := stream.EstimatorConfig{Window: c.driftWindow}
	c.health = stream.NewHealthRegistry()
	cfg.Health = c.health
	if c.driftLog != "" {
		f, err := os.OpenFile(c.driftLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return stream.EstimatorConfig{}, err
		}
		c.logF = f
		c.logBuf = bufio.NewWriter(f)
		c.sink = obs.NewEventSink(c.logBuf, 0)
		cfg.Events = c.sink
	}
	if c.healthAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/health", c.health.Handler())
		mux.Handle("/health/stream/", c.health.Handler())
		mux.Handle("/metrics", obs.Default.Handler())
		go func() {
			if err := http.ListenAndServe(c.healthAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "caliqec: health server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "health server on http://%s/health\n", c.healthAddr)
	}
	return cfg, nil
}

// finish drains the event sink and closes the log, reporting dropped
// events so a stalled disk never silently loses drift evidence.
func (c *driftConfig) finish() error {
	if c.sink == nil {
		if c.logF != nil {
			return c.logF.Close()
		}
		return nil
	}
	err := c.sink.Close()
	if ferr := c.logBuf.Flush(); err == nil {
		err = ferr
	}
	if ferr := c.logF.Close(); err == nil {
		err = ferr
	}
	if n := c.sink.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "caliqec: %d drift events dropped (slow event log)\n", n)
	}
	return err
}

// cmdHealth polls a running replay/serve health endpoint and renders the
// per-stream drift state as text.
func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "health endpoint address (the -health-addr of a running replay/serve)")
	one := fs.String("stream", "", "show only this stream (/health/stream/<id>)")
	watch := fs.Duration("watch", 0, "re-poll at this interval until interrupted (0 = once)")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	poll := func() error {
		snaps, err := fetchHealth(ctx, *addr, *one)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted mid-poll, as the -watch loop is between polls
			}
			return err
		}
		renderHealth(os.Stdout, snaps)
		return nil
	}
	if err := poll(); err != nil {
		return err
	}
	if *watch <= 0 {
		return nil
	}
	tick := time.NewTicker(*watch)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			fmt.Println()
			if err := poll(); err != nil {
				return err
			}
		}
	}
}

// fetchHealth retrieves one or all stream snapshots from the endpoint. It
// gives up when ctx is done, so an interrupt ends a poll the endpoint never
// answers.
func fetchHealth(ctx context.Context, addr, one string) ([]stream.HealthSnapshot, error) {
	url := "http://" + addr + "/health"
	if one != "" {
		url += "/stream/" + one
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("health endpoint: %s", resp.Status)
	}
	if one != "" {
		var snap stream.HealthSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			return nil, err
		}
		return []stream.HealthSnapshot{snap}, nil
	}
	var rep struct {
		Streams []stream.HealthSnapshot `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return rep.Streams, nil
}

// renderHealth prints one aligned row per stream plus a drifting-detector
// detail line for any stream that is flagged.
func renderHealth(w *os.File, snaps []stream.HealthSnapshot) {
	if len(snaps) == 0 {
		fmt.Fprintln(w, "no streams")
		return
	}
	fmt.Fprintf(w, "%-12s %10s %8s %22s %8s %7s %6s\n",
		"stream", "frames", "windows", "LER [95-ish CI]", "baseline", "events", "drift")
	for _, s := range snaps {
		drift := "ok"
		if len(s.Drifting) > 0 {
			drift = "DRIFT"
		}
		fmt.Fprintf(w, "%-12s %10d %8d %8.3g [%.2g, %.2g] %8.3g %7d %6s\n",
			s.Stream, s.Frames, s.Windows, s.LER, s.LERLo, s.LERHi, s.BaselineLER, s.Events, drift)
		if len(s.Drifting) > 0 {
			parts := make([]string, len(s.Drifting))
			for i, d := range s.Drifting {
				parts[i] = fmt.Sprintf("det %d (qubit %d, round %d, %d trips)", d.Detector, d.Qubit, d.Round, d.Trips)
			}
			sort.Strings(parts)
			fmt.Fprintf(w, "  drifting: %s\n", strings.Join(parts, "; "))
		}
	}
}
