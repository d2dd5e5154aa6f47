package stream

import (
	"caliqec/internal/obs"
	"context"
	"errors"
	"io"
)

// FrameScorer scores one frame: given the sorted fired-detector list and
// the sampled observable mask, it reports whether the frame is a logical
// failure. *mc.FrameDecoder is the production implementation (cached graph,
// pooled union-find decoders); tests substitute gated fakes to exercise
// backpressure. Implementations must be safe for concurrent use.
type FrameScorer interface {
	ScoreFrame(syndrome []int, actual uint64) bool
}

// PipelineOptions configures a Replay.
type PipelineOptions struct {
	// Workers is the decode fan-out; ≤ 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the frames read ahead of the decoders, queued or
	// in flight; ≤ 0 selects 256. A full queue blocks the reader, so
	// memory stays bounded no matter how fast frames arrive.
	QueueDepth int
	// Metrics selects the registry the replay's metrics land in; nil
	// selects obs.Default, obs.Discard disables them.
	Metrics *obs.Registry
	// Estimator configures drift monitoring over the decoded frames; the
	// zero value (Window 0) disables it.
	Estimator EstimatorConfig
}

// Stats summarizes one replayed stream.
type Stats struct {
	// Frames is the number of frames decoded; Failures of them scored as
	// logical failures.
	Frames   int
	Failures int
	// Truncated reports the stream ended early but every delivered frame
	// was intact (the ErrTruncated recovery path).
	Truncated bool
	// DriftEvents is the number of drift events the estimator monitor
	// generated; always 0 when monitoring is disabled.
	DriftEvents int64
}

// Replay feeds every frame of r through scorer and returns the aggregate
// stats. The calling goroutine reads frames into one Block stream on a
// private Pool of opt.Workers decoders; at most opt.QueueDepth frames are
// queued or decoding at once, so a slow decode holds back the reader
// instead of buffering the stream in memory.
//
// Termination:
//
//   - Header geometry the scorer's circuit does not match (checkGeometry):
//     returns the error before reading a frame.
//   - Clean end of a complete trace: returns the totals with a nil error.
//   - Truncated trace: returns the totals over the delivered frames with
//     Stats.Truncated set and an error wrapping ErrTruncated; callers that
//     tolerate partial traces test with errors.Is.
//   - Corrupt trace or read failure: totals so far plus the error.
//   - Context cancellation: the reader stops promptly, the workers drain
//     every frame already admitted (bounded by QueueDepth, so the drain is
//     prompt too), and Replay returns the partial totals with ctx.Err().
//
// Replay is deterministic in its counts: scoring is per-frame and the sum
// is order-independent, so worker count and queue depth never change the
// result — the property the round-trip oracle tests rely on.
func Replay(ctx context.Context, r *Reader, scorer FrameScorer, opt PipelineOptions) (Stats, error) {
	ctx, span := obs.StartSpan(ctx, "stream.replay")
	defer span.End()
	h := r.Header()
	span.SetAttr("detectors", h.NumDetectors)
	if err := checkGeometry(h, scorer); err != nil {
		return Stats{}, err
	}

	p := NewPool(Config{
		Workers:     opt.Workers,
		StreamQueue: opt.QueueDepth,
		Metrics:     opt.Metrics,
		Estimator:   opt.Estimator,
	})
	defer p.Close()
	st, err := p.Open(h, scorer, opt.Estimator.Stream)
	if err != nil {
		return Stats{}, err
	}
	ss, err := ingest(ctx, r, st)
	return Stats{
		Frames:      int(ss.Admitted),
		Failures:    int(ss.Failures),
		Truncated:   errors.Is(err, ErrTruncated),
		DriftEvents: ss.DriftEvents,
	}, err
}

// ingest offers r's frames to st until the trace ends, fails or ctx is
// cancelled, then half-closes st, waits for its admitted frames to decode
// and releases it — which flushes the drift monitor's trailing partial
// window, so drift in it still produces events. It records the outcome in
// the pool's stream metrics and on the span in ctx, and returns the
// stream's final accounting and the read error: nil at a clean end of
// trace, wrapping ErrTruncated when the trace was cut short.
func ingest(ctx context.Context, r *Reader, st *Stream) (StreamStats, error) {
	// Cancellation half-closes the stream, which releases an Offer blocked
	// on a full queue.
	stop := context.AfterFunc(ctx, st.CloseSend)
	defer stop()
	var f Frame
	var err error
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = r.Next(&f); err != nil {
			break
		}
		st.Offer(f.Packed, f.Obs)
	}
	if err == io.EOF {
		err = nil
	}
	st.CloseSend()
	<-st.Done()
	st.Close()
	stats := st.Stats()
	p := st.p
	p.failures.Add(stats.Failures)
	span := obs.SpanFrom(ctx)
	span.SetAttr("frames", stats.Admitted)
	span.SetAttr("shed", stats.Shed)
	span.SetAttr("failures", stats.Failures)
	if stats.DriftEvents > 0 {
		span.Event("drift")
		span.SetAttr("drift_events", stats.DriftEvents)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrTruncated):
		p.truncated.Inc()
		span.Event("truncated")
	default:
		span.Event("aborted")
	}
	return stats, err
}
