package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySize keeps every workload's ops small enough for a unit test; the
// deformed-circuit DEMs of calib-cycle are the floor.
var tinySize = size{
	setups:         1,
	sweepShots:     1024,
	sweepDistances: []int{3},
	sweepKeys:      2,
	calibShots:     1024,
	streamFrames:   1024,
}

func tinyConfig(seed uint64) config {
	return config{seed: seed, budget: 300 * time.Millisecond, workers: runtime.NumCPU(), size: tinySize}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the code: the workload
// names, and every metric's name and unit, in order.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, code runs %v", names, workloadOrder)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, code prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), code prints %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, code prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), code prints %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// lastLine prints rep and decodes its final line, requiring exactly the
// four result keys.
func lastLine(t *testing.T, rep *report, name string, cfg config, trace int) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	rep.print(&out, name, cfg, trace)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	if !strings.Contains(out.String(), "# env nproc=") {
		t.Error("report lacks the environment stamp")
	}
	return res
}

func metricNames(t *testing.T, res map[string]json.RawMessage) []string {
	t.Helper()
	var ms map[string]metric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n, m := range ms {
		if m.Unit == "" {
			t.Errorf("%s has no unit", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func wantNames(b benchmarkFile, perLayerRun bool) []string {
	var names []string
	if perLayerRun {
		for _, m := range b.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range b.EndToEnd {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsTiny runs every workload end to end and traced at tiny
// sizes: every op's oracle must pass (the oracles are computed, so any
// seed must verify), and the printed metric names must match
// BENCHMARK.json exactly.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkFile(t)
	ctx := context.Background()
	for i, name := range workloadOrder {
		name, seed := name, uint64(101+i)
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(seed)
			rep, err := runEndToEnd(ctx, workloads[name], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("end-to-end: %d of %d ops failed: %v", rep.failed, rep.attempted, rep.problems)
			}
			res := lastLine(t, rep, name, cfg, 0)
			if got, want := metricNames(t, res), wantNames(b, false); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for n, m := range rep.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			rep, err = runTraced(ctx, workloads[name], cfg, spans)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("traced: %d of %d ops failed: %v", rep.failed, rep.attempted, rep.problems)
			}
			res = lastLine(t, rep, name, cfg, 1)
			if got, want := metricNames(t, res), wantNames(b, true); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for _, n := range []string{"decoder.decode_ns", "trace.coverage", "trace.overhead", "go.allocs_per_shot"} {
				if !(rep.metrics[n].Value > 0) {
					t.Errorf("%s = %v, want > 0", n, rep.metrics[n].Value)
				}
			}
			if _, err := os.Stat(spans); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// TestRecountMatchesEvaluate checks the decomposed oracle on its own: for
// several seeds, SampleChunks + ScoreFrame must count exactly the failures
// Evaluate counts at either worker count.
func TestRecountMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	inst, err := setupSweep(ctx, tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*sweep)
	for k := 0; k < 3; k++ {
		for _, workers := range []int{1, 2} {
			specs := s.specs(k, workers)
			res, err := s.eng.EvaluateBatch(ctx, specs)
			if err != nil {
				t.Fatal(err)
			}
			for j, spec := range specs {
				got, err := recount(ctx, spec, s.fds[j])
				if err != nil {
					t.Fatal(err)
				}
				if got.failures != int64(res[j].Failures) || got.shots != int64(spec.Shots) {
					t.Errorf("k=%d spec %d workers=%d: recount %d failures over %d shots, Evaluate %d over %d",
						k, j, workers, got.failures, got.shots, res[j].Failures, res[j].Shots)
				}
			}
		}
	}
}

// TestRunRejectsBadArguments covers the command line's error path.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nosuch"},
		{"--workload", "replay", "--trace", "2"},
		{"--workload", "replay", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with %q on stdout; want a nonzero exit and no result", args, code, out.String())
		}
	}
}
