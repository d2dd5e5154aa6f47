// Package decoder turns detector error models into decoding graphs and
// implements two decoders over them:
//
//   - a weighted union-find decoder (Delfosse–Nickerson [15 in the paper]),
//     the production decoder used by every Monte-Carlo experiment; and
//   - a greedy minimum-weight matching decoder kept as a baseline and
//     cross-check.
//
// Both decoders consume syndromes (sets of fired detectors) and emit the
// predicted logical-observable flip mask, standing in for PyMatching in the
// paper's Stim+PyMatching evaluation pipeline.
package decoder

import (
	"caliqec/internal/dem"
	"fmt"
	"math"
)

// Graph is a decoding graph: nodes are detectors plus one virtual boundary
// node, edges are graph-like error mechanisms. When the source model carries
// round structure the graph is additionally layered by round: NodeRound maps
// each detector to its QEC round, RoundNodes lists each round's detectors in
// ascending index order, and every edge records the round span it covers.
// The edge list and adjacency order are independent of the layering — they
// are built in mechanism order exactly as before — so round metadata never
// perturbs union-find tie-breaking.
type Graph struct {
	NumDetectors int
	Boundary     int // index of the virtual boundary node (= NumDetectors)
	Edges        []Edge
	Adj          [][]int // node -> incident edge indices

	// Round layering; zero/nil when the model has no round structure.
	NumRounds  int
	NodeRound  []int   // detector -> round (boundary node excluded)
	RoundNodes [][]int // round -> detector indices, ascending
	// NodeQubit maps each detector to the physical qubit whose measurement
	// closed it (-1 unknown); nil when the source model carries no qubit
	// attribution. Drift observability reads it through DetectorQubit to
	// name the hardware qubit behind an anomalous detector fire rate.
	NodeQubit []int
}

// DetectorQubit returns the physical qubit detector d is attributed to, or
// -1 when the graph carries no qubit attribution or d is out of range.
func (g *Graph) DetectorQubit(d int) int {
	if d < 0 || d >= len(g.NodeQubit) {
		return -1
	}
	return g.NodeQubit[d]
}

// DetectorRound returns the QEC round of detector d, or -1 when the graph
// carries no round layering or d is out of range.
func (g *Graph) DetectorRound(d int) int {
	if d < 0 || d >= len(g.NodeRound) {
		return -1
	}
	return g.NodeRound[d]
}

// Edge is one decoding-graph edge.
type Edge struct {
	U, V    int     // node indices; U is always a detector, V may be the boundary
	P       float64 // total mechanism probability
	W       float64 // weight = ln((1-p)/p), clamped to ≥ minEdgeWeight
	WInt    int     // integer weight used by union-find growth
	ObsMask uint64  // observables flipped when this edge is in the correction
	// MinRound/MaxRound span the rounds of the edge's real endpoints: equal
	// for space-like and boundary edges, adjacent for time-like edges. The
	// windowed decoder uses only edges whose span lies inside the active
	// window. Both zero when the graph has no round structure.
	MinRound int
	MaxRound int
}

const minEdgeWeight = 1e-3

// weightScale converts log-likelihood weights to integer growth units for
// the union-find decoder. Two units per unit weight keeps half-edge growth
// meaningful while bounding the number of growth rounds.
const weightScale = 2.0

// BuildGraph converts a DEM into a decoding graph. Mechanisms with one
// detector become boundary edges; with two, internal edges. Mechanisms with
// zero detectors but a non-zero observable mask are undetectable logical
// errors and cause an error, since no decoder can handle them.
func BuildGraph(m *dem.Model) (*Graph, error) {
	g := &Graph{
		NumDetectors: m.NumDetectors,
		Boundary:     m.NumDetectors,
		Adj:          make([][]int, m.NumDetectors+1),
	}
	// Merge parallel mechanisms (same endpoints, possibly different obs
	// masks). Distinct obs masks on the same endpoints cannot be merged;
	// keep the heavier-probability one as the representative correction,
	// folding probabilities, which is the standard matching-graph
	// approximation.
	type key struct{ u, v int }
	index := map[key]int{}
	for _, mech := range m.Mechanisms {
		var u, v int
		switch len(mech.Detectors) {
		case 0:
			if mech.ObsMask != 0 {
				return nil, fmt.Errorf("decoder: undetectable logical error mechanism (p=%g)", mech.P)
			}
			continue
		case 1:
			u, v = mech.Detectors[0], g.Boundary
		case 2:
			u, v = mech.Detectors[0], mech.Detectors[1]
		default:
			return nil, fmt.Errorf("decoder: non-graph-like mechanism with %d detectors", len(mech.Detectors))
		}
		k := key{u, v}
		if i, ok := index[k]; ok {
			e := &g.Edges[i]
			if mech.P > e.P && mech.ObsMask != e.ObsMask {
				e.ObsMask = mech.ObsMask
			}
			e.P = e.P*(1-mech.P) + mech.P*(1-e.P)
			continue
		}
		index[k] = len(g.Edges)
		g.Edges = append(g.Edges, Edge{U: u, V: v, P: mech.P, ObsMask: mech.ObsMask})
	}
	// Drop edges whose merged probability is not positive, as
	// dem.FromCircuit drops non-positive mechanisms: two certain mechanisms
	// on the same endpoints merge to P = 0, an edge that never fires, whose
	// weight ln((1-p)/p) would be +Inf and has no integer growth weight.
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if !(e.P > 0) {
			continue
		}
		p := e.P
		if p > 0.5 {
			p = 0.5
		}
		w := math.Log((1 - p) / p)
		if w < minEdgeWeight {
			w = minEdgeWeight
		}
		e.W = w
		e.WInt = int(math.Round(w * weightScale))
		if e.WInt < 1 {
			e.WInt = 1
		}
		g.Adj[e.U] = append(g.Adj[e.U], len(kept))
		g.Adj[e.V] = append(g.Adj[e.V], len(kept))
		kept = append(kept, e)
	}
	g.Edges = kept
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.DetectorQubits != nil {
		g.NodeQubit = append([]int(nil), m.DetectorQubits...)
	}
	if m.NumRounds > 0 {
		g.NumRounds = m.NumRounds
		g.NodeRound = append([]int(nil), m.DetectorRounds...)
		g.RoundNodes = make([][]int, m.NumRounds)
		for d, r := range g.NodeRound {
			g.RoundNodes[r] = append(g.RoundNodes[r], d)
		}
		for i := range g.Edges {
			e := &g.Edges[i]
			e.MinRound = g.NodeRound[e.U]
			e.MaxRound = e.MinRound
			if e.V != g.Boundary {
				rv := g.NodeRound[e.V]
				if rv < e.MinRound {
					e.MinRound = rv
				}
				if rv > e.MaxRound {
					e.MaxRound = rv
				}
			}
		}
	}
	return g, nil
}

// Decoder predicts the logical-observable flip mask from a syndrome.
type Decoder interface {
	// Decode takes the sorted list of fired detectors and returns the
	// predicted observable flip mask.
	Decode(syndrome []int) uint64
}
