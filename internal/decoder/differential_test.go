package decoder

import (
	"fmt"
	"slices"
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/deform"
	"caliqec/internal/dem"
	"caliqec/internal/lattice"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
)

// ufDiffCase is one circuit on whose sampled syndromes step growth must
// decode exactly as unit-round growth does.
type ufDiffCase struct {
	name  string
	short bool // part of the -short subset
	build func() (*circuit.Circuit, error)
}

func ufDiffCases() []ufDiffCase {
	memory := func(lat *lattice.Lattice, p float64) func() (*circuit.Circuit, error) {
		return func() (*circuit.Circuit, error) {
			return code.NewPatch(lat).MemoryCircuit(code.MemoryOptions{Rounds: lat.D(), Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
		}
	}
	var cases []ufDiffCase
	for _, d := range []int{3, 5, 7} {
		for _, p := range []float64{1e-3, 3e-3, 5e-3, 1e-2, 2e-2} {
			short := d == 3
			cases = append(cases, ufDiffCase{fmt.Sprintf("square-d%d-p%g", d, p), short, memory(lattice.NewSquare(d), p)})
		}
	}
	cases = append(cases,
		ufDiffCase{"heavyhex-d3-p5e-3", true, memory(lattice.NewHeavyHex(3), 5e-3)},
		ufDiffCase{"heavyhex-d5-p5e-3", false, memory(lattice.NewHeavyHex(5), 5e-3)},
		// A calibration event: the centre data qubit isolated, then
		// reintegrated, three rounds per epoch.
		ufDiffCase{"timeline-square-d5", true, func() (*circuit.Circuit, error) {
			lat := lattice.NewSquare(5)
			df := deform.NewDeformer(code.NewPatch(lat))
			if _, err := df.IsolateQubit(lat.DataID[[2]int{lat.Rows / 2, lat.Cols / 2}], "cal"); err != nil {
				return nil, err
			}
			return code.TimelineCircuit([]code.Epoch{
				{Patch: code.NewPatch(lattice.NewSquare(5)), Rounds: 3},
				{Patch: df.Patch, Rounds: 3},
				{Patch: code.NewPatch(lattice.NewSquare(5)), Rounds: 3},
			}, code.TimelineOptions{Basis: lattice.BasisZ, Noise: code.UniformNoise(5e-3)})
		}},
	)
	return cases
}

// sampleSyndromes draws shots syndromes of c with the frame simulator.
func sampleSyndromes(c *circuit.Circuit, shots int, seed uint64) [][]int {
	var out [][]int
	sim.NewFrameSimulator(c, rng.New(seed)).Sample(shots, func(res sim.BatchResult) {
		for s := 0; s < res.Shots; s++ {
			var syn []int
			for di := range res.Detectors {
				if res.Detectors[di][s/64]>>uint(s%64)&1 == 1 {
					syn = append(syn, di)
				}
			}
			out = append(out, syn)
		}
	})
	return out
}

// compareWindow decodes syn with both decoders through DecodeWindow over
// [lo, hi) and reports a disagreement in observable mask or chosen edges.
func compareWindow(uf *UnionFind, ref *referenceUnionFind, syn []int, lo, hi int) error {
	gotObs, gotChosen := uf.DecodeWindow(syn, lo, hi, nil)
	wantObs, wantChosen := ref.DecodeWindow(syn, lo, hi, nil)
	if gotObs != wantObs || !slices.Equal(gotChosen, wantChosen) {
		return fmt.Errorf("DecodeWindow(%v, %d, %d) = %b %v, reference %b %v", syn, lo, hi, gotObs, gotChosen, wantObs, wantChosen)
	}
	return nil
}

// compareShot compares Decode and the whole-shot DecodeWindow on syn.
func compareShot(uf *UnionFind, ref *referenceUnionFind, syn []int, rounds int) error {
	if got, want := uf.Decode(syn), ref.Decode(syn); got != want {
		return fmt.Errorf("Decode(%v) = %b, reference %b", syn, got, want)
	}
	return compareWindow(uf, ref, syn, 0, rounds)
}

// TestUnionFindMatchesReference: on sampled syndromes of every circuit
// family the decoder serves, step growth returns the unit-round oracle's
// observable mask, and DecodeWindow its chosen edges in the same order,
// for the whole shot and for every three-round window fed that window's
// defects. -short runs the d=3 grid, heavy-hex d=3 and the timeline.
func TestUnionFindMatchesReference(t *testing.T) {
	const shots, window = 4096, 3
	for _, tc := range ufDiffCases() {
		if testing.Short() && !tc.short {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := dem.FromCircuit(c)
			if err != nil {
				t.Fatal(err)
			}
			g, err := BuildGraph(m)
			if err != nil {
				t.Fatal(err)
			}
			uf, ref := NewUnionFind(g), newReferenceUnionFind(g)
			fired := 0
			var in []int
			for _, syn := range sampleSyndromes(c, shots, 14) {
				if len(syn) > 0 {
					fired++
				}
				if err := compareShot(uf, ref, syn, g.NumRounds); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < g.NumRounds; lo++ {
					in = in[:0]
					for _, d := range syn {
						if r := g.NodeRound[d]; r >= lo && r < lo+window {
							in = append(in, d)
						}
					}
					if err := compareWindow(uf, ref, in, lo, lo+window); err != nil {
						t.Fatal(err)
					}
				}
			}
			if fired == 0 {
				t.Fatalf("no shot of %d fired a detector", shots)
			}
		})
	}
}

// fuzzGraph builds a small round-layered decoding graph and a syndrome
// from b: b[0] picks the detector count, b[1] the rounds, b[2:4] the
// syndrome bitmask, b[4:6] the window [lo, hi), and each following byte
// triple one edge (endpoints, integer weight 1..32, observable mask).
// Repeated endpoint pairs and self-loops are skipped, as BuildGraph merges
// parallel mechanisms and no mechanism joins a detector to itself.
func fuzzGraph(b []byte) (g *Graph, syndrome []int, lo, hi int) {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	n := 1 + at(0)%10
	rounds := 1 + at(1)%4
	if rounds > n {
		rounds = n
	}
	g = &Graph{NumDetectors: n, Boundary: n, Adj: make([][]int, n+1), NumRounds: rounds}
	g.NodeRound = make([]int, n)
	g.RoundNodes = make([][]int, rounds)
	for d := 0; d < n; d++ {
		g.NodeRound[d] = d * rounds / n
		g.RoundNodes[g.NodeRound[d]] = append(g.RoundNodes[g.NodeRound[d]], d)
	}
	mask := at(2) | at(3)<<8
	for d := 0; d < n; d++ {
		if mask>>d&1 == 1 {
			syndrome = append(syndrome, d)
		}
	}
	lo = at(4) % (rounds + 1)
	hi = lo + at(5)%(rounds+2)
	seen := map[[2]int]bool{}
	for i := 6; i+2 < len(b); i += 3 {
		u, v := int(b[i])%n, int(b[i+1])%(n+1)
		if v < u {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		e := Edge{U: u, V: v, WInt: 1 + int(b[i+2]&0x1f), ObsMask: uint64(b[i+2] >> 5)}
		e.MinRound, e.MaxRound = g.NodeRound[u], g.NodeRound[u]
		if v != g.Boundary {
			e.MaxRound = g.NodeRound[v]
		}
		g.Adj[u] = append(g.Adj[u], len(g.Edges))
		g.Adj[v] = append(g.Adj[v], len(g.Edges))
		g.Edges = append(g.Edges, e)
	}
	return g, syndrome, lo, hi
}

// FuzzUnionFindMatchesReference: on small random graphs, syndromes and
// windows, step growth decodes exactly as the unit-round oracle, and a
// decode leaves the scratch state pristine for the next (the window decode
// is followed by a second whole-shot decode on the same instances).
func FuzzUnionFindMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Rate 2: two defects joined by an odd-weight edge, both clusters
	// active, plus a lighter edge to a third detector that sets k first.
	f.Add([]byte{2, 0, 0x03, 0, 0, 1, 0, 1, 0x24, 1, 2, 0x01, 0, 2, 0x46})
	// Boundary edges: three defects, each with a boundary edge of its own
	// weight, one pair also joined internally.
	f.Add([]byte{2, 0, 0x07, 0, 0, 1, 0, 3, 0x22, 1, 3, 0x04, 2, 3, 0x09, 0, 1, 0x05})
	// A defect with no in-window edge: its only edge spans rounds 0-1 and
	// the window is [1, 2), so the first step has no live entry.
	f.Add([]byte{1, 1, 0x02, 0, 1, 1, 0, 1, 0x23})
	// The same defect beside a growing pair in the window: later steps
	// find k from the pair while the stranded cluster has nothing to grow.
	f.Add([]byte{3, 1, 0x0e, 0, 1, 1, 1, 2, 0x23, 2, 3, 0x05, 3, 4, 0x0b, 2, 4, 0x42})
	f.Fuzz(func(t *testing.T, b []byte) {
		g, syn, lo, hi := fuzzGraph(b)
		uf, ref := NewUnionFind(g), newReferenceUnionFind(g)
		if err := compareWindow(uf, ref, syn, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := compareShot(uf, ref, syn, g.NumRounds); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBuildGraphDropsZeroProbabilityEdges: two certain mechanisms on the
// same detector pair with different observable masks merge to P = 0. The
// merged edge never fires, so BuildGraph drops it instead of giving it a
// weight from ln((1-p)/p) = +Inf, and both decoders predict no flip.
func TestBuildGraphDropsZeroProbabilityEdges(t *testing.T) {
	m := &dem.Model{NumDetectors: 2, NumObs: 2, Mechanisms: []dem.Mechanism{
		{Detectors: []int{0, 1}, ObsMask: 1, P: 1},
		{Detectors: []int{0, 1}, ObsMask: 2, P: 1},
	}}
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 0 {
		t.Fatalf("zero-probability edge kept: %+v", g.Edges)
	}
	for name, dec := range map[string]Decoder{"union-find": NewUnionFind(g), "greedy": NewGreedy(g)} {
		if got := dec.Decode([]int{0, 1}); got != 0 {
			t.Errorf("%s decoded {0,1} to %b, want 0", name, got)
		}
	}
}
