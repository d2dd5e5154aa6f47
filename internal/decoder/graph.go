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
	"unsafe"
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
//
// Every array is sized exactly before it is filled: each node's Adj is a
// window of one slab and each round's RoundNodes a window of another, so a
// graph costs the same few allocations for a model of any size. Adjacency
// lists keep edge order, which union-find tie-breaking depends on.
func BuildGraph(m *dem.Model) (*Graph, error) {
	edges, err := mergeMechanisms(m)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.NumDetectors
	g := &Graph{NumDetectors: n, Boundary: n, Edges: edges}
	// off[v] counts v's edges, then becomes where v's window starts.
	off := make([]int, n+2)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 1; v <= n+1; v++ {
		off[v] += off[v-1]
	}
	g.Adj = carve(make([]int, off[n+1]), off)
	for i, e := range edges {
		g.Adj[e.U] = append(g.Adj[e.U], i)
		g.Adj[e.V] = append(g.Adj[e.V], i)
	}
	if m.DetectorQubits != nil {
		g.NodeQubit = append([]int(nil), m.DetectorQubits...)
	}
	if m.NumRounds > 0 {
		g.NumRounds = m.NumRounds
		g.NodeRound = append([]int(nil), m.DetectorRounds...)
		off := make([]int, m.NumRounds+1)
		for _, r := range g.NodeRound {
			off[r+1]++
		}
		for r := 1; r <= m.NumRounds; r++ {
			off[r] += off[r-1]
		}
		g.RoundNodes = carve(make([]int, n), off)
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

// carve cuts slab into len(off)-1 empty lists, list i with room for exactly
// off[i+1]-off[i] elements, so appending to one never reaches the next. A
// list with no room stays nil.
func carve(slab, off []int) [][]int {
	lists := make([][]int, len(off)-1)
	for i := range lists {
		if off[i] < off[i+1] {
			lists[i] = slab[off[i]:off[i]:off[i+1]]
		}
	}
	return lists
}

// mergeMechanisms folds m's graph-like mechanisms into weighted edges, one
// per endpoint pair, numbered in order of their first mechanism. Parallel
// mechanisms (same endpoints, possibly different obs masks) fold their
// probabilities; of distinct obs masks on the same endpoints the
// heavier-probability one stays the representative correction, which is
// the standard matching-graph approximation. Edges whose merged
// probability is not positive are dropped, as dem.FromCircuit drops
// non-positive mechanisms: two certain mechanisms on the same endpoints
// merge to P = 0, an edge that never fires, whose weight ln((1-p)/p) would
// be +Inf and has no integer growth weight.
func mergeMechanisms(m *dem.Model) ([]Edge, error) {
	mechs := m.Mechanisms
	boundary := m.NumDetectors
	// edgeOf[i] is the edge mechanism i folds into, -1 for none. The edges
	// whose first endpoint is u form a chain from last[u] through prev, so a
	// parallel mechanism is found by walking u's few edges; far holds each
	// edge's other endpoint.
	edgeOf := make([]int32, len(mechs))
	last := make([]int32, boundary+1)
	for u := range last {
		last[u] = -1
	}
	prev := make([]int32, 0, len(mechs))
	far := make([]int32, 0, len(mechs))
	for i, mech := range mechs {
		edgeOf[i] = -1
		var u, v int
		switch len(mech.Detectors) {
		case 0:
			if mech.ObsMask != 0 {
				return nil, fmt.Errorf("decoder: undetectable logical error mechanism (p=%g)", mech.P)
			}
			continue
		case 1:
			u, v = mech.Detectors[0], boundary
		case 2:
			u, v = mech.Detectors[0], mech.Detectors[1]
		default:
			return nil, fmt.Errorf("decoder: non-graph-like mechanism with %d detectors", len(mech.Detectors))
		}
		j := last[u]
		for j >= 0 && int(far[j]) != v {
			j = prev[j]
		}
		if j < 0 {
			j = int32(len(far))
			far = append(far, int32(v))
			prev = append(prev, last[u])
			last[u] = j
		}
		edgeOf[i] = j
	}
	edges := make([]Edge, len(far))
	seen := 0 // edges whose first mechanism has been folded in
	for i, mech := range mechs {
		j := int(edgeOf[i])
		if j < 0 {
			continue
		}
		e := &edges[j]
		if j == seen {
			seen++
			*e = Edge{U: mech.Detectors[0], V: int(far[j]), P: mech.P, ObsMask: mech.ObsMask}
			continue
		}
		if mech.P > e.P && mech.ObsMask != e.ObsMask {
			e.ObsMask = mech.ObsMask
		}
		e.P = e.P*(1-mech.P) + mech.P*(1-e.P)
	}
	kept := 0
	for _, e := range edges {
		if e.P > 0 {
			kept++
		}
	}
	if kept < len(edges) {
		all := edges
		edges = make([]Edge, 0, kept)
		for _, e := range all {
			if e.P > 0 {
				edges = append(edges, e)
			}
		}
	}
	for i := range edges {
		e := &edges[i]
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
	}
	return edges, nil
}

// Bytes returns the bytes g retains: its header and arrays, counted from
// their capacities.
func (g *Graph) Bytes() int {
	const intBytes = int(unsafe.Sizeof(0))
	n := int(unsafe.Sizeof(*g)) +
		cap(g.Edges)*int(unsafe.Sizeof(Edge{})) +
		(cap(g.NodeRound)+cap(g.NodeQubit))*intBytes
	for _, lists := range [][][]int{g.Adj, g.RoundNodes} {
		n += cap(lists) * int(unsafe.Sizeof([]int(nil)))
		for _, l := range lists {
			n += cap(l) * intBytes
		}
	}
	return n
}

// Decoder predicts the logical-observable flip mask from a syndrome.
type Decoder interface {
	// Decode takes the sorted list of fired detectors and returns the
	// predicted observable flip mask.
	Decode(syndrome []int) uint64
}
