package main

import (
	"caliqec/internal/stream"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// runHealth polls a running replay/serve health endpoint and renders the
// per-stream drift state as text.
func runHealth(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("health", stderr)
	addr := fs.String("addr", "127.0.0.1:8791", "health endpoint address (the -health-addr of a running replay/serve)")
	one := fs.String("stream", "", "show only this stream (/health/stream/<id>)")
	watch := fs.Duration("watch", 0, "re-poll at this interval until interrupted (0 = once)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	poll := func() error {
		snaps, err := fetchHealth(ctx, *addr, *one)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted mid-poll, as the -watch loop is between polls
			}
			return err
		}
		renderHealth(stdout, snaps)
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
			fmt.Fprintln(stdout)
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
func renderHealth(w io.Writer, snaps []stream.HealthSnapshot) {
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
