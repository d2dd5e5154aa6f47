package stream

import (
	"sync"
	"testing"

	"caliqec/internal/obs"
)

// orderScorer decodes one frame per token on step and records whether
// frames arrive in admission order: each frame's observable mask carries
// its admission index.
type orderScorer struct {
	step     chan struct{}
	next     uint64
	disorder int
}

func (s *orderScorer) ScoreFrame(syndrome []int, actual uint64) bool {
	<-s.step
	if actual != s.next {
		s.disorder++
	}
	s.next = actual + 1
	return false
}

// TestBackloggedStreamQueueStaysBounded keeps one stream backlogged for
// over 100k admitted frames: the single worker decodes one span at a time,
// and the queue is refilled to its bound before each span, so it never
// drains. The stream's queue buffer must stay within twice the bound, and
// frames must still decode in admission order. A queue that recycled its
// storage only when it drained completely would grow with every frame.
func TestBackloggedStreamQueueStaysBounded(t *testing.T) {
	const (
		queue   = 256
		quantum = 64
		total   = 100_000
	)
	sc := &orderScorer{step: make(chan struct{})}
	p := NewPool(Config{Workers: 1, StreamQueue: queue, Quantum: quantum, Backpressure: Shed, Metrics: obs.Discard})
	defer p.Close()
	// Unpark the worker before Close drains, also when the test fails.
	release := sync.OnceFunc(func() { close(sc.step) })
	defer release()
	st, err := p.Open(Header{NumDetectors: 8, NumObs: 1}, sc, "backlog")
	if err != nil {
		t.Fatal(err)
	}
	packed := []byte{0}
	admitted := 0
	for admitted < total {
		for st.Offer(packed, uint64(admitted)) {
			admitted++
		}
		for i := 0; i < quantum; i++ {
			sc.step <- struct{}{}
		}
		p.mu.Lock()
		queued, size := st.queue.n, len(st.queue.buf)
		p.mu.Unlock()
		if queued == 0 {
			t.Fatalf("queue drained after %d admitted frames: the stream is not backlogged", admitted)
		}
		if size > 2*queue {
			t.Fatalf("queue buffer holds %d entries after %d admitted frames, want <= %d", size, admitted, 2*queue)
		}
	}
	release()
	st.CloseSend()
	<-st.Done()
	st.Close()
	if got := st.Stats().Admitted; got != int64(admitted) {
		t.Fatalf("stream admitted %d frames, the test counted %d", got, admitted)
	}
	if sc.disorder != 0 || sc.next != uint64(admitted) {
		t.Fatalf("%d frames decoded out of admission order; last index %d of %d", sc.disorder, sc.next, admitted)
	}
}

// TestFrameRingFIFOAcrossGrowth pushes seven frames and pops five per round,
// so the ring wraps and then grows while wrapped; frames must leave in the
// order they entered.
func TestFrameRingFIFOAcrossGrowth(t *testing.T) {
	var r frameRing
	var in, out int64
	var got []frame
	check := func() {
		for _, f := range got {
			if f.idx != out {
				t.Fatalf("popped frame %d, want %d", f.idx, out)
			}
			out++
		}
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			r.push(frame{idx: in})
			in++
		}
		got = r.pop(got[:0], 5)
		check()
	}
	got = r.pop(got[:0], r.n)
	check()
	if out != in || r.n != 0 {
		t.Fatalf("popped %d of %d frames, %d left", out, in, r.n)
	}
}
