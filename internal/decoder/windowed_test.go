package decoder

import (
	"caliqec/internal/lattice"
	"math/rand"
	"testing"
)

// splitRounds slices a sorted syndrome into per-round detector lists using
// the graph's round map (the same linear walk the stream path uses).
func splitRounds(g *Graph, syndrome []int) [][]int {
	rounds := make([][]int, g.NumRounds)
	for _, d := range syndrome {
		r := g.NodeRound[d]
		rounds[r] = append(rounds[r], d)
	}
	return rounds
}

var _ Decoder = (*Windowed)(nil)

// windowedDecode runs one whole shot through a Windowed decoder.
func windowedDecode(t *testing.T, w *Windowed, g *Graph, syndrome []int) uint64 {
	t.Helper()
	w.Reset()
	for _, fired := range splitRounds(g, syndrome) {
		if err := w.IngestRound(fired); err != nil {
			t.Fatal(err)
		}
	}
	return w.Flush()
}

func TestGraphRoundLayering(t *testing.T) {
	_, g, _, _, _ := memCircuit(t, lattice.Square, 3, 4, 1e-3)
	if g.NumRounds == 0 || g.NodeRound == nil || g.RoundNodes == nil {
		t.Fatalf("graph missing round layering: NumRounds=%d", g.NumRounds)
	}
	seen := 0
	for r, nodes := range g.RoundNodes {
		prev := -1
		for _, n := range nodes {
			if g.NodeRound[n] != r {
				t.Fatalf("node %d in layer %d but NodeRound=%d", n, r, g.NodeRound[n])
			}
			if n <= prev {
				t.Fatalf("layer %d not ascending: %v", r, nodes)
			}
			prev = n
			seen++
		}
	}
	if seen != g.NumDetectors {
		t.Fatalf("layers cover %d of %d detectors", seen, g.NumDetectors)
	}
	for i, e := range g.Edges {
		wantMin, wantMax := g.NodeRound[e.U], g.NodeRound[e.U]
		if e.V != g.Boundary {
			if r := g.NodeRound[e.V]; r < wantMin {
				wantMin = r
			} else if r > wantMax {
				wantMax = r
			}
		}
		if e.MinRound != wantMin || e.MaxRound != wantMax {
			t.Fatalf("edge %d span [%d,%d], want [%d,%d]", i, e.MinRound, e.MaxRound, wantMin, wantMax)
		}
		if e.MaxRound-e.MinRound > 1 {
			t.Fatalf("edge %d spans %d rounds; matching graphs are time-local", i, e.MaxRound-e.MinRound+1)
		}
	}
}

// TestWindowedFullWindowBitIdentical: a window at least as large as the shot
// never slides mid-stream, so Flush performs a single unmasked decode that
// must agree bit-for-bit with whole-shot UnionFind.Decode.
func TestWindowedFullWindowBitIdentical(t *testing.T) {
	_, g, uf, _, _ := memCircuit(t, lattice.Square, 3, 5, 2e-3)
	w, err := NewWindowed(g, g.NumRounds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var syndrome []int
		for d := 0; d < g.NumDetectors; d++ {
			if rng.Float64() < 0.04 {
				syndrome = append(syndrome, d)
			}
		}
		want := uf.(*UnionFind).Decode(syndrome)
		got := windowedDecode(t, w, g, syndrome)
		if got != want {
			t.Fatalf("trial %d: windowed %b != whole-shot %b (syndrome %v)", trial, got, want, syndrome)
		}
	}
}

// TestWindowedSingleMechanisms: every elementary mechanism's syndrome must
// decode to its observable mask for any window that can hold a time-like
// edge (W >= 2); single errors always fit inside one window.
func TestWindowedSingleMechanisms(t *testing.T) {
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		_, g, _, _, m := memCircuit(t, kind, 3, 4, 1e-3)
		for _, win := range []int{2, 3, 4} {
			w, err := NewWindowed(g, win)
			if err != nil {
				t.Fatal(err)
			}
			for i, mech := range m.Mechanisms {
				pred := windowedDecode(t, w, g, mech.Detectors)
				if pred != mech.ObsMask {
					t.Errorf("%v W=%d: mechanism %d %v obs=%b decoded as %b",
						kind, win, i, mech.Detectors, mech.ObsMask, pred)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestWindowedDeterministicReuse: the same decoder instance must produce the
// same answers across interleaved shots (scratch state fully reset), and
// Decode at a sliding window must agree with ingesting the rounds by hand.
func TestWindowedDeterministicReuse(t *testing.T) {
	_, g, _, _, _ := memCircuit(t, lattice.Square, 3, 6, 2e-3)
	w, err := NewWindowed(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	syndromes := make([][]int, 50)
	for i := range syndromes {
		for d := 0; d < g.NumDetectors; d++ {
			if rng.Float64() < 0.05 {
				syndromes[i] = append(syndromes[i], d)
			}
		}
	}
	first := make([]uint64, len(syndromes))
	for i, s := range syndromes {
		first[i] = windowedDecode(t, w, g, s)
	}
	for i := len(syndromes) - 1; i >= 0; i-- {
		if got := windowedDecode(t, w, g, syndromes[i]); got != first[i] {
			t.Fatalf("shot %d: %b on reuse, %b first", i, got, first[i])
		}
		if got := w.Decode(syndromes[i]); got != first[i] {
			t.Fatalf("shot %d: Decode %b, ingested rounds %b", i, got, first[i])
		}
	}
}

func TestWindowedIngestErrors(t *testing.T) {
	_, g, _, _, _ := memCircuit(t, lattice.Square, 3, 3, 1e-3)
	if _, err := NewWindowed(g, 0); err == nil {
		t.Error("want error for window 0")
	}
	roundless := &Graph{NumDetectors: 2, Boundary: 2, Adj: make([][]int, 3)}
	if _, err := NewWindowed(roundless, 3); err == nil {
		t.Error("want error for roundless graph")
	}
	w, err := NewWindowed(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Detector from the wrong round.
	var late int
	for d, r := range g.NodeRound {
		if r == g.NumRounds-1 {
			late = d
			break
		}
	}
	if err := w.IngestRound([]int{late}); err == nil {
		t.Error("want error for detector outside its round")
	}
	w.Reset()
	for r := 0; r < g.NumRounds; r++ {
		if err := w.IngestRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.IngestRound(nil); err == nil {
		t.Error("want error for ingesting past NumRounds")
	}
}

// TestWindowedCommitCrossingEdge exercises the artifact-edge path directly:
// a time-like defect pair straddling the commit boundary must still be
// matched through its time-like edge, with the future-side pending defect
// cancelled by the committed correction rather than re-matched later.
func TestWindowedCommitCrossingEdge(t *testing.T) {
	_, g, uf, _, _ := memCircuit(t, lattice.Square, 3, 6, 2e-3)
	// Find a time-like edge with an interior span (not touching first/last
	// detector rounds) and empty observable effect distinction irrelevant.
	var pair []int
	for _, e := range g.Edges {
		if e.V != g.Boundary && e.MaxRound == e.MinRound+1 && e.MinRound == 2 {
			pair = []int{e.U, e.V}
			if pair[0] > pair[1] {
				pair[0], pair[1] = pair[1], pair[0]
			}
			break
		}
	}
	if pair == nil {
		t.Skip("no interior time-like edge found")
	}
	want := uf.(*UnionFind).Decode(pair)
	for _, win := range []int{2, 3} {
		w, err := NewWindowed(g, win)
		if err != nil {
			t.Fatal(err)
		}
		if got := windowedDecode(t, w, g, pair); got != want {
			t.Errorf("W=%d: crossing pair %v decoded %b, whole-shot %b", win, pair, got, want)
		}
	}
}
