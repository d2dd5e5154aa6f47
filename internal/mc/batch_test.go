package mc

import (
	"bytes"
	"caliqec/internal/decoder"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchSpecs builds a mixed batch exercising every per-spec feature the
// shared scheduler must keep independent: plain fixed-shot specs over
// distinct circuits, a stale-prior spec, an early-stop spec and a
// progress-callback spec.
func batchSpecs(t *testing.T, workers int) []Spec {
	t.Helper()
	c3 := memCircuit(t, 3, 3, 3e-3)
	c3hot := memCircuit(t, 3, 3, 8e-3)
	c5 := memCircuit(t, 5, 3, 3e-3)
	return []Spec{
		{Circuit: c3, Decoder: decoder.KindUnionFind, Shots: 5000, Rounds: 3, Seed: 11, Workers: workers},
		{Circuit: c5, Decoder: decoder.KindUnionFind, Shots: 3000, Rounds: 3, Seed: 22, Workers: workers},
		{Circuit: c3hot, Prior: c3, Decoder: decoder.KindUnionFind, Shots: 4000, Rounds: 3, Seed: 33, Workers: workers},
		{Circuit: c3hot, Decoder: decoder.KindUnionFind, Shots: 60000, Rounds: 3, Seed: 44, Workers: workers,
			TargetFailures: 15},
		{Circuit: c3, Decoder: decoder.KindGreedy, Shots: 2500, Rounds: 3, Seed: 55, Workers: workers},
	}
}

// TestBatchMatchesSequential: every spec's batch result must be
// bit-identical to a standalone Evaluate with the same seed, across worker
// counts — the tentpole determinism guarantee. Early-stop and progress
// specs ride in the same batch.
func TestBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	// Reference results from standalone Evaluates on a fresh engine.
	seq := New(Options{Metrics: obs.NewRegistry(nil)})
	var want []Result
	for _, spec := range batchSpecs(t, 0) {
		res, err := seq.Evaluate(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		specs := batchSpecs(t, workers)
		// Attach a progress callback to one spec to mix callbacks into the
		// batch; it must not perturb any result.
		var mu sync.Mutex
		var shotsSeen []int
		specs[1].Progress = func(shots, failures int) {
			mu.Lock()
			shotsSeen = append(shotsSeen, shots)
			mu.Unlock()
		}
		e := New(Options{Metrics: obs.NewRegistry(nil)})
		got, err := e.EvaluateBatch(ctx, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d spec %d: batch %+v differs from standalone %+v", workers, i, got[i], want[i])
			}
		}
		mu.Lock()
		for i := 1; i < len(shotsSeen); i++ {
			if shotsSeen[i] <= shotsSeen[i-1] {
				t.Errorf("workers=%d: progress shots not strictly increasing: %v", workers, shotsSeen)
			}
		}
		if len(shotsSeen) == 0 || shotsSeen[len(shotsSeen)-1] != want[1].Shots {
			t.Errorf("workers=%d: final progress call %v, want last = %d", workers, shotsSeen, want[1].Shots)
		}
		mu.Unlock()
	}
}

// TestBatchSeedIsolation: each spec's chunk seeds come from its own
// RNG/Seed, so inserting an extra spec into a batch must not perturb the
// results of the specs around it.
func TestBatchSeedIsolation(t *testing.T) {
	ctx := context.Background()
	c := memCircuit(t, 3, 3, 3e-3)
	a := Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 4000, Rounds: 3, Seed: 7}
	b := Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 4000, Rounds: 3, Seed: 8}
	extra := Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 4000, Rounds: 3, Seed: 9}

	e := New(Options{Metrics: obs.NewRegistry(nil)})
	two, err := e.EvaluateBatch(ctx, []Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	three, err := e.EvaluateBatch(ctx, []Spec{a, extra, b})
	if err != nil {
		t.Fatal(err)
	}
	if three[0] != two[0] || three[2] != two[1] {
		t.Errorf("co-scheduled spec perturbed its neighbors: [a b] = %+v, [a x b] = (%+v, _, %+v)",
			two, three[0], three[2])
	}
}

// TestBatchSharedRNG: specs sharing one RNG instance draw their chunk seeds
// in spec order during prepare, matching sequential Evaluate calls that
// share the generator the same way.
func TestBatchSharedRNG(t *testing.T) {
	ctx := context.Background()
	c := memCircuit(t, 3, 3, 3e-3)
	mk := func(r *rng.RNG) []Spec {
		return []Spec{
			{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 3000, Rounds: 3, RNG: r},
			{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 3000, Rounds: 3, RNG: r},
		}
	}
	seq := New(Options{Metrics: obs.NewRegistry(nil)})
	var want []Result
	for _, spec := range mk(rng.New(123)) {
		res, err := seq.Evaluate(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	e := New(Options{Metrics: obs.NewRegistry(nil)})
	got, err := e.EvaluateBatch(ctx, mk(rng.New(123)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shared-RNG spec %d: batch %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

func TestBatchEmptyAndValidation(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Metrics: obs.NewRegistry(nil)})
	res, err := e.EvaluateBatch(ctx, nil)
	if res != nil || err != nil {
		t.Errorf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
	c := memCircuit(t, 3, 3, 3e-3)
	_, err = e.EvaluateBatch(ctx, []Spec{
		{Circuit: c, Shots: 100},
		{Circuit: nil, Shots: 100},
	})
	if err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Errorf("invalid spec error should name the index: %v", err)
	}
}

// TestBatchProgressSerialized: the Progress calls of different specs in
// one batch never overlap, so the specs may share one status-line writer.
func TestBatchProgressSerialized(t *testing.T) {
	c := memCircuit(t, 3, 3, 3e-3)
	e := New(Options{Metrics: obs.NewRegistry(nil)})
	var inFlight, overlaps, calls atomic.Int32
	progress := func(shots, failures int) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(50 * time.Microsecond) // hold the call open for a racing one to hit
		calls.Add(1)
		inFlight.Add(-1)
	}
	specs := []Spec{
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 32 * ChunkShots, Rounds: 3, Seed: 1, Workers: 4, Progress: progress},
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 32 * ChunkShots, Rounds: 3, Seed: 2, Workers: 4, Progress: progress},
	}
	if _, err := e.EvaluateBatch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d of %d progress calls overlapped another call", n, calls.Load())
	}
}

func TestBatchCancellation(t *testing.T) {
	c := memCircuit(t, 3, 3, 3e-3)
	e := New(Options{Metrics: obs.NewRegistry(nil)})
	specs := []Spec{
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 1 << 22, Seed: 1},
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 1 << 22, Seed: 2},
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateBatch(pre, specs); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled batch: %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	specs[0].Progress = func(shots, failures int) {
		if !fired {
			fired = true
			cancel()
		}
	}
	defer cancel()
	if _, err := e.EvaluateBatch(ctx, specs); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancel: %v, want context.Canceled", err)
	}
}

// TestBatchSpan: the batch records one mc.evaluate_batch parent span plus
// one mc.evaluate child span per spec.
func TestBatchSpan(t *testing.T) {
	tr := obs.NewTracer(nil)
	ctx := obs.WithTracer(context.Background(), tr)
	e := New(Options{Metrics: obs.NewRegistry(nil)})
	c := memCircuit(t, 3, 3, 2e-2)
	specs := []Spec{
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 2000, Seed: 1},
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 200000, Seed: 2, TargetFailures: 20},
	}
	if _, err := e.EvaluateBatch(ctx, specs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"mc.evaluate_batch"`) {
		t.Errorf("trace missing mc.evaluate_batch span:\n%s", out)
	}
	if got := strings.Count(out, `"mc.evaluate"`); got != len(specs) {
		t.Errorf("trace has %d mc.evaluate child spans, want %d:\n%s", got, len(specs), out)
	}
	if !strings.Contains(out, `"early-stop"`) {
		t.Errorf("trace missing the early-stopped spec's event:\n%s", out)
	}
}

// TestBatchMetrics: a batch increments mc.batch.evaluations once and
// mc.evaluations once per spec, and the scheduler occupancy gauge returns
// to zero when the pool drains.
func TestBatchMetrics(t *testing.T) {
	reg := obs.NewRegistry(nil)
	e := New(Options{Metrics: reg})
	c := memCircuit(t, 3, 3, 3e-3)
	specs := []Spec{
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 2000, Seed: 1},
		{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 2000, Seed: 2},
	}
	if _, err := e.EvaluateBatch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["mc.batch.evaluations"]; got != int64(1) {
		t.Errorf("mc.batch.evaluations = %v, want 1", got)
	}
	if got := snap["mc.evaluations"]; got != int64(len(specs)) {
		t.Errorf("mc.evaluations = %v, want %d", got, len(specs))
	}
	occ, ok := snap["mc.sched.occupancy"]
	if !ok {
		t.Fatal("mc.sched.occupancy gauge not registered")
	}
	if occ != float64(0) {
		t.Errorf("mc.sched.occupancy = %v after batch completed, want 0", occ)
	}
}
