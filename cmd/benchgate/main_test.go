package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// captured parses testdata/run.txt, one run of the test binary over the
// gated benchmarks on 2 vCPUs.
func captured(t *testing.T) run {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return parse(string(b))
}

// passing returns n copies of the captured run with its drift-estimator
// ratio moved to 1.0: that one run read 1.1565, above the cap on one core
// and on two, and every other gate passes as captured.
func passing(t *testing.T, n int) []run {
	t.Helper()
	base := captured(t)
	base["StreamReplay/estimator"]["ns/op"] = base["StreamReplay/pipeline"]["ns/op"]
	runs := make([]run, n)
	for i := range runs {
		runs[i] = run{}
		for name, units := range base {
			runs[i][name] = map[string]float64{}
			for u, v := range units {
				runs[i][name][u] = v
			}
		}
	}
	return runs
}

func TestParse(t *testing.T) {
	r := captured(t)
	if len(r) != 15 {
		t.Errorf("parsed %d benchmarks, want the 15 gated ones: %v", len(r), r)
	}
	for _, c := range []struct {
		name, unit string
		want       float64
	}{
		{"EngineCachedSweep/cold", "ns/op", 2550305},
		{"EngineBatchSweep/batch-warm", "allocs/op", 159},
		{"StreamReplay/read", "frames/s", 12606223},
		{"StreamReplay/windowed", "round_p99_ns", 3355},
		{"StreamReplay/windowed", "B/op", 1770},
		{"FleetServe", "fleet_p99_ns", 1032},
		{"FleetServe", "allocs/op", 16071},
		{"LintRepo", "ns/op", 545830853},
	} {
		if got, ok := r[c.name][c.unit]; !ok || got != c.want {
			t.Errorf("%s %s = %v (present %v), want %v", c.name, c.unit, got, ok, c.want)
		}
	}
	// A single-core run prints no GOMAXPROCS suffix, and a name may end in
	// a hyphenated word; go test adds an ok line, and lines without
	// -benchmem carry no allocs.
	out := "BenchmarkEngineBatchSweep/batch-cold \t 20\t 15829393 ns/op\n" +
		"BenchmarkLintRepo-8 \t 20\t 460252285 ns/op\n" +
		"--- FAIL: BenchmarkFleetServe\n" +
		"PASS\nok  \tcaliqec\t19.062s\n"
	want := run{
		"EngineBatchSweep/batch-cold": {"ns/op": 15829393},
		"LintRepo":                    {"ns/op": 460252285},
	}
	got := parse(out)
	if len(got) != len(want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
	for name, units := range want {
		if len(got[name]) != 1 || got[name]["ns/op"] != units["ns/op"] {
			t.Errorf("parse %s = %v, want %v", name, got[name], units)
		}
	}
}

// suiteOf names the BENCH file whose gates read a benchmark.
func suiteOf(name string) string {
	switch {
	case strings.HasPrefix(name, "StreamReplay/"), name == "FleetServe":
		return "BENCH_stream.json"
	case name == "LintRepo":
		return "BENCH_lint.json"
	}
	return "BENCH_mc.json"
}

var files = []string{"BENCH_mc.json", "BENCH_stream.json", "BENCH_lint.json"}

// verdicts runs check in a fresh directory and reports which suites passed.
func verdicts(t *testing.T, runs []run, cores int) (map[string]bool, string) {
	t.Helper()
	var out bytes.Buffer
	all, err := check(&out, t.TempDir(), runs, cores)
	if err != nil {
		t.Fatal(err)
	}
	pass := map[string]bool{}
	for _, f := range files {
		pass[f] = strings.Contains(out.String(), f+": pass, written\n")
		if pass[f] == strings.Contains(out.String(), "FAIL "+f) {
			t.Fatalf("%s neither passes nor fails cleanly:\n%s", f, out.String())
		}
	}
	if all != (pass[files[0]] && pass[files[1]] && pass[files[2]]) {
		t.Fatalf("check returned %v for verdicts %v", all, pass)
	}
	return pass, out.String()
}

// TestGateLimits puts each gated value just inside and just outside its
// limit, on one core and on two.
func TestGateLimits(t *testing.T) {
	ratio := func(num, den string) func(run, float64) {
		return func(r run, x float64) { r[num]["ns/op"] = x * r[den]["ns/op"] }
	}
	set := func(name, unit string) func(run, float64) {
		return func(r run, x float64) { r[name][unit] = x }
	}
	cases := []struct {
		file, key string
		cap       bool    // the value may not exceed the limit
		one, two  float64 // the limit on one core and on two
		put       func(r run, x float64)
	}{
		{"BENCH_mc.json", "obs_overhead_ratio", true, 1.05, 1.05, ratio("ObsOverhead/recording", "ObsOverhead/discard")},
		{"BENCH_mc.json", "cold_warm_ratio", true, 8, 8, ratio("EngineCachedSweep/cold", "EngineCachedSweep/warm")},
		{"BENCH_mc.json", "batch_speedup_cold", false, 0.85, 1.0, ratio("EngineBatchSweep/sequential-cold", "EngineBatchSweep/batch-cold")},
		{"BENCH_mc.json", "batch_warm_allocs", true, 162, 162, set("EngineBatchSweep/batch-warm", "allocs/op")},
		{"BENCH_mc.json", "lane_speedup_warm", false, 1.4, 1.8, func(r run, x float64) { r["EngineCachedSweep/warm"]["ns/op"] = 2237118 / x }},
		{"BENCH_stream.json", "pipeline_speedup", false, 0.6, 0.95, ratio("StreamReplay/serial", "StreamReplay/pipeline")},
		{"BENCH_stream.json", "round_p99_ns", true, 100000, 100000, set("StreamReplay/windowed", "round_p99_ns")},
		{"BENCH_stream.json", "fleet_p99_ns", true, 200000, 200000, set("FleetServe", "fleet_p99_ns")},
		{"BENCH_stream.json", "estimator_overhead_ratio", true, 1.15, 1.05, ratio("StreamReplay/estimator", "StreamReplay/pipeline")},
		{"BENCH_lint.json", "lint_ns_per_op", true, 1e10, 1e10, set("LintRepo", "ns/op")},
	}
	for _, cores := range []int{1, 2} {
		for _, c := range cases {
			lim := c.one
			if cores >= 2 {
				lim = c.two
			}
			for _, inside := range []bool{true, false} {
				x := lim * (1 + 1e-6)
				if c.cap == inside {
					x = lim * (1 - 1e-6)
				}
				runs := passing(t, numRuns)
				for _, r := range runs {
					r["EngineBatchSweep/sequential-warm"]["allocs/op"] = 162
					c.put(r, x)
				}
				pass, out := verdicts(t, runs, cores)
				for _, f := range files {
					if want := inside || f != c.file; pass[f] != want {
						t.Errorf("%s at %v on %d core(s): %s passed %v, want %v\n%s", c.key, x, cores, f, pass[f], want, out)
					}
				}
				if !inside && !strings.Contains(out, "FAIL "+c.file+": "+c.key+" ") {
					t.Errorf("%s at %v on %d core(s): no FAIL line names it\n%s", c.key, x, cores, out)
				}
			}
		}
	}
}

// TestReduction gates ratios on their median across runs and allocs/op on
// their minimum.
func TestReduction(t *testing.T) {
	for _, c := range []struct {
		name string
		put  func(i int, r run) // i is the run's index, 0 to 4
		pass bool
	}{
		{"two of five ratios above the cap", func(i int, r run) {
			if i < 2 {
				r["StreamReplay/estimator"]["ns/op"] *= 2
			}
		}, true},
		{"three of five ratios above the cap", func(i int, r run) {
			if i < 3 {
				r["StreamReplay/estimator"]["ns/op"] *= 2
			}
		}, false},
		{"one low batch-warm count", func(i int, r run) {
			r["EngineBatchSweep/sequential-warm"]["allocs/op"] = 160
			r["EngineBatchSweep/batch-warm"]["allocs/op"] = 170
			if i == 3 {
				r["EngineBatchSweep/batch-warm"]["allocs/op"] = 150
			}
		}, true},
		{"one low sequential-warm count", func(i int, r run) {
			r["EngineBatchSweep/sequential-warm"]["allocs/op"] = 160
			r["EngineBatchSweep/batch-warm"]["allocs/op"] = 155
			if i == 3 {
				r["EngineBatchSweep/sequential-warm"]["allocs/op"] = 150
			}
		}, false},
	} {
		runs := passing(t, 5)
		for i, r := range runs {
			c.put(i, r)
		}
		pass, out := verdicts(t, runs, 2)
		if (pass["BENCH_mc.json"] && pass["BENCH_stream.json"]) != c.pass {
			t.Errorf("%s: verdicts %v, want pass %v\n%s", c.name, pass, c.pass, out)
		}
	}
}

func TestMissingResultFailsSuite(t *testing.T) {
	drops := [][2]string{{"StreamReplay/windowed", "round_p99_ns"}, {"FleetServe", "fleet_p99_ns"}}
	for name := range captured(t) {
		drops = append(drops, [2]string{name, ""})
	}
	for _, d := range drops {
		runs := passing(t, numRuns)
		if d[1] == "" {
			delete(runs[2], d[0])
		} else {
			delete(runs[2][d[0]], d[1])
		}
		pass, out := verdicts(t, runs, 2)
		for _, f := range files {
			if want := f != suiteOf(d[0]); pass[f] != want {
				t.Errorf("without %s %s: %s passed %v, want %v\n%s", d[0], d[1], f, pass[f], want, out)
			}
		}
	}
}

// TestWrite checks that each passing suite's file carries its keys, and
// that a failing suite leaves its committed file byte-identical while the
// others are still written.
func TestWrite(t *testing.T) {
	keys := map[string][]string{
		"BENCH_mc.json": {"allocs_per_op", "batch_speedup_cold", "batch_warm_allocs", "benchtime", "cold_warm_cap", "cold_warm_ratio", "cores",
			"lane_speedup_floor", "lane_speedup_warm", "ns_per_op", "obs_overhead_ratio", "runs", "sequential_warm_allocs"},
		"BENCH_stream.json": {"allocs_per_op", "benchtime", "cores", "estimator_overhead_cap", "estimator_overhead_ratio", "fleet_p99_budget_ns",
			"fleet_p99_ns", "frames_per_sec", "ns_per_op", "pipeline_speedup", "round_p99_budget_ns", "round_p99_ns", "runs"},
		"BENCH_lint.json": {"benchtime", "cores", "lint_budget_ns", "lint_ns_per_op", "runs"},
	}
	committed := []byte("{\"committed\": true}\n")
	for _, failStream := range []bool{false, true} {
		dir := t.TempDir()
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(dir, f), committed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		runs := passing(t, numRuns)
		if failStream {
			for _, r := range runs {
				r["FleetServe"]["fleet_p99_ns"] = 250000
			}
		}
		if all, err := check(io.Discard, dir, runs, 2); err != nil || all == failStream {
			t.Fatalf("check = %v, %v with the stream suite failing: %v", all, err, failStream)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if failStream && f == "BENCH_stream.json" {
				if !bytes.Equal(b, committed) {
					t.Errorf("failing suite rewrote %s:\n%s", f, b)
				}
				continue
			}
			var doc map[string]any
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			var got []string
			for k := range doc {
				got = append(got, k)
			}
			slices.Sort(got)
			if !slices.Equal(got, keys[f]) || doc["runs"] != float64(numRuns) || doc["cores"] != float64(2) || doc["benchtime"] != "20x" {
				t.Errorf("%s: keys %v, runs %v, cores %v, benchtime %v", f, got, doc["runs"], doc["cores"], doc["benchtime"])
			}
		}
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
			t.Errorf("temporary files left behind: %v", tmp)
		}
	}
}
