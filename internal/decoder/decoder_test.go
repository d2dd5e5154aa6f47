package decoder

import (
	"caliqec/internal/code"
	"caliqec/internal/dem"
	"caliqec/internal/lattice"
	"runtime/debug"
	"testing"
)

func memCircuit(t *testing.T, kind lattice.Kind, d, rounds int, p float64) (*code.Patch, *Graph, Decoder, Decoder, *dem.Model) {
	t.Helper()
	var lat *lattice.Lattice
	if kind == lattice.Square {
		lat = lattice.NewSquare(d)
	} else {
		lat = lattice.NewHeavyHex(d)
	}
	patch := code.NewPatch(lat)
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
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
	return patch, g, NewUnionFind(g), NewGreedy(g), m
}

func TestDEMGraphlike(t *testing.T) {
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		_, g, _, _, m := memCircuit(t, kind, 3, 3, 1e-3)
		if len(m.Mechanisms) == 0 {
			t.Fatalf("%v: empty DEM", kind)
		}
		if len(g.Edges) == 0 {
			t.Fatalf("%v: empty decoding graph", kind)
		}
		for _, mech := range m.Mechanisms {
			if len(mech.Detectors) > 2 {
				t.Fatalf("%v: non-graph-like mechanism %v", kind, mech)
			}
		}
	}
}

// TestDecodersCorrectSingleMechanisms injects every single elementary error
// mechanism as a syndrome: any decoder worth the name must predict its
// observable effect exactly (single errors are always correctable for d≥3).
func TestDecodersCorrectSingleMechanisms(t *testing.T) {
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		_, g, uf, gr, m := memCircuit(t, kind, 3, 3, 1e-3)
		_ = g
		for i, mech := range m.Mechanisms {
			for name, dec := range map[string]Decoder{"uf": uf, "greedy": gr} {
				pred := dec.Decode(mech.Detectors)
				if pred != mech.ObsMask {
					t.Errorf("%v %s: mechanism %d %v obs=%b decoded as %b",
						kind, name, i, mech.Detectors, mech.ObsMask, pred)
				}
			}
		}
		if t.Failed() {
			break
		}
	}
}

func TestEmptySyndrome(t *testing.T) {
	_, _, uf, gr, _ := memCircuit(t, lattice.Square, 3, 2, 1e-3)
	if uf.Decode(nil) != 0 || gr.Decode(nil) != 0 {
		t.Fatal("empty syndrome must decode to no correction")
	}
}

// TestNewUnionFindAllocsFlat: decoder set-up builds the half-edge
// adjacency and its per-node and per-edge tables as flat arrays, one
// allocation each, so it allocates as often on a d=13 graph as on a d=5
// one. The calibration loop builds fresh decoders for every verdict.
func TestNewUnionFindAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, d := range []int{5, 13} {
		_, g, _, _, _ := memCircuit(t, lattice.Square, d, d, 1e-3)
		allocs[d] = testing.AllocsPerRun(20, func() { NewUnionFind(g) })
	}
	if allocs[5] != allocs[13] {
		t.Errorf("NewUnionFind allocated %v times on the d=5 graph and %v on the d=13 graph, want equal", allocs[5], allocs[13])
	}
}

// TestBuildGraphAllocsFlat: BuildGraph sizes every array before it fills
// it, carves the nodes' adjacency lists from one slab and the rounds' node
// lists from another, and finds parallel mechanisms without a map, so it
// allocates as often for a d=13 model as for a d=5 one. The calibration
// loop builds a graph for every deformed circuit it sees. GC stays off
// while it counts: under the race detector a collection cycle can add an
// object to a run, and that count is not BuildGraph's.
func TestBuildGraphAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[int]float64{}
	for _, d := range []int{5, 13} {
		_, _, _, _, m := memCircuit(t, lattice.Square, d, d, 1e-3)
		allocs[d] = testing.AllocsPerRun(20, func() {
			if _, err := BuildGraph(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[5] != allocs[13] {
		t.Errorf("BuildGraph allocated %v times on the d=5 model and %v on the d=13 model, want equal", allocs[5], allocs[13])
	}
}
