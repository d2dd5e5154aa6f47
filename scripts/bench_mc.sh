#!/bin/sh
# Runs the mc-engine benchmark suite (cached sweep, obs overhead, batched
# multi-patch sweep), writes the parsed results to BENCH_mc.json, and
# enforces four budgets:
#
#   - the observability layer may cost the warm cached sweep at most 5%;
#   - cold_warm_ratio: EngineCachedSweep/cold (fresh engine: DEM extraction
#     and graph build, then 256 shots) may take at most 8x the warm sweep
#     (cached DEM and graph). Both numbers come from one run, so the cap
#     needs no cross-machine constant. It reads 1.9-3.6 with the backward-
#     sweep DEM extractor and read 94-176 when extraction re-propagated
#     every fault, so it catches the set-up cost creeping back;
#   - EvaluateBatch must not lose to the equivalent sequential-Evaluate
#     loop on the 8-patch cold sweep: >=1.0x on multi-core runners. The
#     floor was 1.3x while cold sweeps were dominated by serial DEM builds
#     that the batch overlapped; with extraction in single-digit
#     milliseconds both paths are sampling-bound on every core, and the
#     ratio reads 1.07-1.30x on 2 vCPUs (1.58-1.74x before). On a
#     single-core runner the scheduler has no parallel headroom by
#     construction (batch and sequential perform identical work in a
#     different order), so the guard degrades to >=0.85x, allowing
#     scheduler noise. Either way the allocation budget holds: batch-warm
#     allocs/op must not exceed sequential-warm allocs/op;
#   - lane_speedup_warm: the multi-word (256-shot) sampler plus the
#     incremental union-find reset must keep EngineCachedSweep/warm at
#     least 1.8x faster than the committed pre-widening baseline
#     (2,237,118 ns/op) on multi-core runners, where the worker pool adds
#     parallel headroom on top of the per-shot wins. A single-core runner
#     sees only the algorithmic speedup (measured ~2.1x) and may be slower
#     hardware than the baseline machine, so the floor degrades to 1.4x.
#
# It then runs the stream replay suite into BENCH_stream.json with three
# guards of its own:
#
#   - the stream.Replay worker pipeline must not regress below the
#     single-threaded read+decode baseline — >=0.95x on multi-core runners
#     (the pipeline should win there; 0.95 absorbs scheduler noise) and
#     >=0.6x on a single core, where handing each frame through the decode
#     pool's queue (a locked Offer per frame, a claim and a goroutine
#     switch per span) is pure overhead by construction;
#   - the sliding-window decoder's per-round p99 ingest latency
#     (BenchmarkStreamReplay/windowed, round_p99_ns) must stay under
#     100µs — the bounded-latency budget of the streaming decode path.
#     Measured values sit around 5µs; the 20x headroom absorbs slow CI
#     runners without letting an O(rounds) regression through.
#   - the drift estimator (BenchmarkStreamReplay/estimator vs /pipeline)
#     may cost replay throughput at most 5% on multi-core runners (15% on
#     a single core, where the reader and the decode workers take turns on
#     one CPU and pipeline ns/op is noisy). Measured overhead sits around
#     2-3%: the estimator's work is one mutex hop per claimed span plus
#     integer bucket updates per frame.
#   - the multi-tenant fleet's per-frame decode p99 (BenchmarkFleetServe,
#     fleet_p99_ns: 256 concurrent streams through one shared pool) must
#     stay under 200µs. The pool times each claimed span with one clock
#     pair and records its per-frame mean once per frame, so this is a p99
#     of span means. Measured values sit around 7µs; the headroom
#     absorbs slow CI runners while catching a scheduler regression that
#     parks frames behind lock convoys or unfair queues.
#
# CI runs this on every push; the committed BENCH_mc.json/BENCH_stream.json
# are the trajectory points for the checked-out commit. Each awk that checks
# a suite's gates writes its JSON to a temporary file beside the BENCH file,
# which is moved into place only when the awk exits 0: a run whose gate
# fails prints what it measured and leaves the committed file as it was.
#
# Usage: scripts/bench_mc.sh [benchtime]   (default 20x)
set -eu
trap 'rm -f BENCH_mc.json.tmp BENCH_stream.json.tmp BENCH_lint.json.tmp' EXIT

# discard TMP: a gate failed; show the run's numbers and stop. The EXIT
# trap removes TMP.
discard() {
    cat "$1"
    exit 1
}
benchtime="${1:-20x}"
cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
out="$(go test -run '^$' -bench 'BenchmarkEngineCachedSweep|BenchmarkObsOverhead|BenchmarkEngineBatchSweep' -benchtime "$benchtime" -benchmem -count 1 .)"
echo "$out"
echo "$out" | awk -v benchtime="$benchtime" -v cores="$cores" '
/^Benchmark/ {
    # e.g. BenchmarkObsOverhead/recording-8  20  4446020 ns/op  21674 B/op  170 allocs/op
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns[name] = $3
    if (NF >= 7) allocs[name] = $7
    order[n++] = name
}
END {
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"cores\": %d,\n", cores
    printf "  \"ns_per_op\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], ns[order[i]], (i < n-1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"allocs_per_op\": {\n"
    first = 1
    for (i = 0; i < n; i++) {
        if (order[i] in allocs) {
            printf "%s    \"%s\": %s", (first ? "" : ",\n"), order[i], allocs[order[i]]
            first = 0
        }
    }
    printf "\n  }"
    fail = 0
    off = ns["ObsOverhead/discard"]; on = ns["ObsOverhead/recording"]
    if (off > 0 && on > 0) {
        ratio = on / off
        printf ",\n  \"obs_overhead_ratio\": %.4f", ratio
        if (ratio > 1.05) {
            printf "FAIL: obs overhead %.1f%% exceeds the 5%% budget\n", (ratio-1)*100 > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: ObsOverhead results missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    cold = ns["EngineCachedSweep/cold"]; warm = ns["EngineCachedSweep/warm"]
    if (cold > 0 && warm > 0) {
        cw = cold / warm
        cwcap = 8
        printf ",\n  \"cold_warm_ratio\": %.4f", cw
        printf ",\n  \"cold_warm_cap\": %d", cwcap
        if (cw > cwcap) {
            printf "FAIL: cold cached sweep %.1fx the warm one, over the %dx cap\n", cw, cwcap > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: EngineCachedSweep results missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    sc = ns["EngineBatchSweep/sequential-cold"]; bc = ns["EngineBatchSweep/batch-cold"]
    sa = allocs["EngineBatchSweep/sequential-warm"]; ba = allocs["EngineBatchSweep/batch-warm"]
    if (sc > 0 && bc > 0) {
        speedup = sc / bc
        printf ",\n  \"batch_speedup_cold\": %.4f", speedup
        printf ",\n  \"batch_warm_allocs\": %s", ba
        printf ",\n  \"sequential_warm_allocs\": %s", sa
        floor = (cores >= 2 ? 1.0 : 0.85)
        if (speedup < floor) {
            printf "FAIL: batch cold sweep speedup %.2fx below the %.1fx floor (%d cores)\n", speedup, floor, cores > "/dev/stderr"
            fail = 1
        }
        if (ba + 0 > sa + 0) {
            printf "FAIL: batch-warm allocs/op %s exceeds sequential-warm %s\n", ba, sa > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: EngineBatchSweep results missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    base = 2237118
    if (warm > 0) {
        lane = base / warm
        lfloor = (cores >= 2 ? 1.8 : 1.4)
        printf ",\n  \"lane_speedup_warm\": %.4f", lane
        printf ",\n  \"lane_speedup_floor\": %.2f", lfloor
        if (lane < lfloor) {
            printf "FAIL: warm cached sweep %.2fx of the pre-widening baseline, below the %.1fx floor (%d cores)\n", lane, lfloor, cores > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: EngineCachedSweep/warm result missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    printf "\n}\n"
    if (fail) exit 1
}' > BENCH_mc.json.tmp || discard BENCH_mc.json.tmp
mv BENCH_mc.json.tmp BENCH_mc.json
cat BENCH_mc.json

out="$(go test -run '^$' -bench 'BenchmarkStreamReplay|BenchmarkFleetServe' -benchtime "$benchtime" -benchmem -count 1 .)"
echo "$out"
echo "$out" | awk -v benchtime="$benchtime" -v cores="$cores" '
/^Benchmark/ {
    # e.g. BenchmarkStreamReplay/pipeline-8  20  419631 ns/op  976125 frames/s  151511 B/op  8740 allocs/op
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkStreamReplay\//, "", name)
    sub(/^Benchmark/, "", name)
    ns[name] = $3
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "frames/s") fps[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
        if ($(i+1) == "round_p99_ns") p99[name] = $i
        if ($(i+1) == "fleet_p99_ns") fp99[name] = $i
    }
    order[n++] = name
}
END {
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"cores\": %d,\n", cores
    printf "  \"ns_per_op\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], ns[order[i]], (i < n-1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"frames_per_sec\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], fps[order[i]], (i < n-1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"allocs_per_op\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], allocs[order[i]], (i < n-1 ? "," : "")
    }
    printf "  }"
    fail = 0
    serial = ns["serial"]; pipe = ns["pipeline"]; rd = ns["read"]
    if (serial > 0 && pipe > 0 && rd > 0) {
        speedup = serial / pipe
        printf ",\n  \"pipeline_speedup\": %.4f", speedup
        floor = (cores >= 2 ? 0.95 : 0.6)
        if (speedup < floor) {
            printf "FAIL: stream pipeline %.2fx of the serial baseline, below the %.2fx floor (%d cores)\n", speedup, floor, cores > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: StreamReplay results missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    wp99 = p99["windowed"]
    budget = 100000
    if (wp99 > 0) {
        printf ",\n  \"round_p99_ns\": %s", wp99
        printf ",\n  \"round_p99_budget_ns\": %d", budget
        if (wp99 + 0 > budget) {
            printf "FAIL: windowed per-round p99 %s ns exceeds the %d ns budget\n", wp99, budget > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: windowed round_p99_ns missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    fleetp99 = fp99["FleetServe"]
    fbudget = 200000
    if (fleetp99 > 0) {
        printf ",\n  \"fleet_p99_ns\": %s", fleetp99
        printf ",\n  \"fleet_p99_budget_ns\": %d", fbudget
        if (fleetp99 + 0 > fbudget) {
            printf "FAIL: fleet per-frame decode p99 %s ns exceeds the %d ns budget\n", fleetp99, fbudget > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: FleetServe fleet_p99_ns missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    est = ns["estimator"]
    if (est > 0 && pipe > 0) {
        ratio = est / pipe
        cap = (cores >= 2 ? 1.05 : 1.15)
        printf ",\n  \"estimator_overhead_ratio\": %.4f", ratio
        printf ",\n  \"estimator_overhead_cap\": %.2f", cap
        if (ratio > cap) {
            printf "FAIL: drift estimator costs %.1f%% of replay throughput, over the %.0f%% budget (%d cores)\n", (ratio-1)*100, (cap-1)*100, cores > "/dev/stderr"
            fail = 1
        }
    } else {
        printf "FAIL: StreamReplay/estimator result missing from benchmark output\n" > "/dev/stderr"
        fail = 1
    }
    printf "\n}\n"
    if (fail) exit 1
}' > BENCH_stream.json.tmp || discard BENCH_stream.json.tmp
mv BENCH_stream.json.tmp BENCH_stream.json
cat BENCH_stream.json

# Lint-gate trajectory: one BenchmarkLintRepo op is a full caliqec-lint pass
# (load + type-check + every rule, CFG and dataflow included) over the whole
# module. Budget: 10s/op. Measured values sit around 0.5s; the headroom
# absorbs slow CI runners while still catching an accidentally quadratic
# rule (the CFG cache, for instance, failing to cache) before the lint job
# becomes the pipeline's long pole.
out="$(go test -run '^$' -bench 'BenchmarkLintRepo' -benchtime "$benchtime" -count 1 .)"
echo "$out"
echo "$out" | awk -v benchtime="$benchtime" -v cores="$cores" '
/^BenchmarkLintRepo/ {
    ns = $3
}
END {
    budget = 10000000000
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"cores\": %d,\n", cores
    printf "  \"lint_ns_per_op\": %s,\n", (ns != "" ? ns : "null")
    # %.0f, not %d: 1e10 overflows 32-bit awk integers.
    printf "  \"lint_budget_ns\": %.0f\n", budget
    printf "}\n"
    if (ns == "") {
        printf "FAIL: BenchmarkLintRepo result missing from benchmark output\n" > "/dev/stderr"
        exit 1
    }
    if (ns + 0 > budget) {
        printf "FAIL: lint pass %s ns/op exceeds the %d ns budget\n", ns, budget > "/dev/stderr"
        exit 1
    }
}' > BENCH_lint.json.tmp || discard BENCH_lint.json.tmp
mv BENCH_lint.json.tmp BENCH_lint.json
cat BENCH_lint.json
