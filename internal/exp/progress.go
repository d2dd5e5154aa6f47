package exp

import (
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"context"
)

// ProgressFunc receives live Monte-Carlo status while an experiment runs:
// a human-readable label for the evaluation in flight, shots committed so
// far, the shot budget, and failures counted. The mc engine serializes the
// calls of one evaluation or batch across all its labels (never concurrent,
// strictly increasing shot counts per label, and a guaranteed final call
// per label with the returned totals), but they arrive from worker
// goroutines on the evaluation's critical path and must be fast.
type ProgressFunc func(label string, shots, total, failures int)

type progressKey struct{}

// WithProgress returns a context whose Monte-Carlo experiments report live
// status through fn (`caliqec repro -progress` wires this to a status line).
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// evalLER is the one funnel through which every experiment in this package
// runs a Monte-Carlo LER measurement: it attaches the context's progress
// reporter (if any) to the spec and evaluates on the shared mc engine, so
// repeated circuits across experiments hit one DEM/graph cache.
func evalLER(ctx context.Context, label string, spec mc.Spec) (mc.Result, error) {
	ctx, span := obs.StartSpan(ctx, "exp.eval")
	defer span.End()
	span.SetAttr("label", label)
	if fn, ok := ctx.Value(progressKey{}).(ProgressFunc); ok && fn != nil {
		total := spec.Shots
		spec.Progress = func(shots, failures int) { fn(label, shots, total, failures) }
	}
	res, err := mc.Evaluate(ctx, spec)
	if err == nil && res.EarlyStopped {
		span.SetAttr("earlystop", true)
	}
	return res, err
}

// evalLERBatch is evalLER's fan-out counterpart: it runs the specs as one
// mc.EvaluateBatch over the shared engine's chunk scheduler, attaching the
// context's progress reporter to each spec under its own label. Results
// are bit-identical to evaluating the specs one by one (each spec seeds
// from its own RNG/Seed), so migrating a sweep here changes its wall-clock
// time, not its numbers. labels must be 1:1 with specs.
func evalLERBatch(ctx context.Context, labels []string, specs []mc.Spec) ([]mc.Result, error) {
	ctx, span := obs.StartSpan(ctx, "exp.evalbatch")
	defer span.End()
	span.SetAttr("specs", len(specs))
	if fn, ok := ctx.Value(progressKey{}).(ProgressFunc); ok && fn != nil {
		for i := range specs {
			label, total := labels[i], specs[i].Shots
			specs[i].Progress = func(shots, failures int) { fn(label, shots, total, failures) }
		}
	}
	return mc.EvaluateBatch(ctx, specs)
}
