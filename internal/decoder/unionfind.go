package decoder

import (
	"math"
	"slices"
)

// UnionFind is a weighted union-find decoder (Delfosse–Nickerson). Clusters
// grow from syndrome defects in integer weight units; when the grown regions
// of two endpoints cover an edge, their clusters merge. Growth stops when
// every cluster is neutral (even defect count or touching the boundary).
// A spanning-forest peeling pass then extracts the correction.
//
// Growth advances from one edge saturation to the next, not one weight unit
// per round. Between two saturations no cluster changes, so neither does any
// frontier edge's rate: one unit per round, two when the clusters at both
// endpoints are active. Each step therefore makes two passes over the active
// frontiers. The first drops stale entries and finds k, the fewest unit
// rounds after which some live edge saturates; the second grows every live
// edge by k units per active side and collects exactly the edges k unit
// rounds would have saturated, which then merge their clusters. The
// grown-edge set after each step is the one unit rounds reach, and the
// correction depends only on that set, the defects and the peel's
// ascending-node forest, so results are identical to unit-round growth.
// Frontier visits scale with saturating steps rather than with weight units
// (see DESIGN.md §18).
//
// Scratch state is kept pristine between calls instead of being reset at
// the start of every decode: each decode tracks exactly the nodes and edges
// it dirties (syndrome defects, absorbed endpoints, partially grown edges —
// O(cluster) of them, typically a handful) and restores them before
// returning, so per-shot cost scales with the syndrome instead of with
// graph size. At realistic error rates most shots fire a few detectors out
// of hundreds, making this the difference between O(defects) and O(V+E)
// per shot.
type UnionFind struct {
	g *Graph

	// edges is the growth kernel's compact copy of g.Edges; an edge is
	// grown once grow >= w.
	edges []ufEdge
	bnd   int32 // g.Boundary

	// Scratch state, pristine between Decode calls. Pristine means:
	// parent[i]=i, rank 0, state clBoundary at the boundary node and 0
	// elsewhere, defect/isRoot/added/visited/carry all false, parentEdge
	// -1, every frontier list empty, every edge's grow 0.
	parent  []int32
	rank    []uint8
	state   []uint8 // per cluster root: clOdd | clBoundary
	visited []bool
	defect  []bool
	// Per-root candidate boundary edge list (lazily cleaned).
	frontier [][]int

	// Root-set scratch: rootList holds current cluster roots in insertion
	// order (a deterministic replacement for the old map-based set, whose
	// iteration order could reorder tie-breaking unions between runs);
	// isRoot marks membership.
	rootList []int32
	isRoot   []bool
	added    []bool  // node's adjacency already pushed to a frontier
	act      []int32 // active roots this growth step
	satur    []int   // edges saturated this growth step

	// Dirty tracking: the nodes (excluding the boundary, which is handled
	// unconditionally) and edges this decode has touched and must restore.
	// dirty is exactly the added-marked node set — every node that can
	// receive a union/find/frontier write is either a defect or an absorbed
	// endpoint, and both are added-marked before the write.
	dirty     []int32
	grownList []int // edges with grow > 0, pushed on the 0→k transition

	// Peeling scratch.
	parentEdge []int
	order      []int32
	stack      []int32
	carry      []bool
	peelNodes  []int32 // sorted copy of dirty: ascending spanning-forest roots
	chosen     []int   // edge indices of the correction extracted by peel

	// Every edge's round span lies inside [spanLo, spanHi]; a decode window
	// [lo, hi) covering it filters nothing, so growth skips the test.
	spanLo, spanHi int
}

// ufEdge is one edge as the growth kernel sees it: endpoints, integer weight
// (Edge.WInt) and the growth accumulated this decode.
type ufEdge struct{ u, v, w, grow int32 }

// Cluster state bits. A cluster is active — still growing — exactly when
// its state is clOdd: an odd defect count and no boundary node.
const (
	clOdd      uint8 = 1
	clBoundary uint8 = 2
)

// NewUnionFind returns a union-find decoder over g.
func NewUnionFind(g *Graph) *UnionFind {
	n := g.NumDetectors + 1
	u := &UnionFind{
		g:          g,
		edges:      make([]ufEdge, len(g.Edges)),
		bnd:        int32(g.Boundary),
		parent:     make([]int32, n),
		rank:       make([]uint8, n),
		state:      make([]uint8, n),
		visited:    make([]bool, n),
		defect:     make([]bool, n),
		frontier:   make([][]int, n),
		isRoot:     make([]bool, n),
		added:      make([]bool, n),
		parentEdge: make([]int, n),
		carry:      make([]bool, n),
	}
	for i, e := range g.Edges {
		u.edges[i] = ufEdge{u: int32(e.U), v: int32(e.V), w: int32(e.WInt)}
		if i == 0 || e.MinRound < u.spanLo {
			u.spanLo = e.MinRound
		}
		if i == 0 || e.MaxRound > u.spanHi {
			u.spanHi = e.MaxRound
		}
	}
	// Establish the pristine invariant once; decode restores it on exit.
	for i := 0; i < n; i++ {
		u.parent[i] = int32(i)
		u.parentEdge[i] = -1
	}
	u.state[g.Boundary] = clBoundary
	return u
}

func (u *UnionFind) find(v int32) int32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

// union merges the clusters of roots a and b and returns the new root.
func (u *UnionFind) union(a, b int32) int32 {
	if a == b {
		return a
	}
	if u.rank[a] < u.rank[b] {
		a, b = b, a
	}
	u.parent[b] = a
	if u.rank[a] == u.rank[b] {
		u.rank[a]++
	}
	// Parities add mod 2; the boundary flag is sticky.
	u.state[a] ^= u.state[b] & clOdd
	u.state[a] |= u.state[b] & clBoundary
	// Concatenate frontier lists; stale (internal or fully grown) entries
	// are discarded lazily during growth. Truncate (rather than nil) the
	// absorbed list so its backing array is reused by later Decode calls.
	if len(u.frontier[a]) < len(u.frontier[b]) {
		u.frontier[a], u.frontier[b] = u.frontier[b], u.frontier[a]
	}
	u.frontier[a] = append(u.frontier[a], u.frontier[b]...)
	u.frontier[b] = u.frontier[b][:0]
	return a
}

// Decode implements Decoder.
func (u *UnionFind) Decode(syndrome []int) uint64 {
	return u.decode(syndrome, math.MinInt, math.MaxInt)
}

// DecodeWindow decodes the syndrome using only edges whose round span lies
// entirely inside [lo, hi), and returns the predicted observable mask along
// with the correction's edge indices appended to chosen. The edge filter is
// the only difference from Decode: with a window covering every round the
// two are bit-identical, growth order included. The returned slice aliases
// chosen's backing array when capacity allows.
func (u *UnionFind) DecodeWindow(syndrome []int, lo, hi int, chosen []int) (uint64, []int) {
	obs := u.decode(syndrome, lo, hi)
	return obs, append(chosen, u.chosen...)
}

// markDirty records v as touched this decode. Every node a decode writes to
// — defects at setup, endpoints absorbed during growth — passes through
// here exactly once (guarded by the added flag), except the boundary node,
// which restore() resets unconditionally.
func (u *UnionFind) markDirty(v int32) {
	u.added[v] = true
	u.dirty = append(u.dirty, v)
}

func (u *UnionFind) decode(syndrome []int, lo, hi int) uint64 {
	u.chosen = u.chosen[:0]
	if len(syndrome) == 0 {
		return 0
	}
	// The round filter runs only when the window excludes some edge.
	filter := lo > u.spanLo || hi <= u.spanHi
	g := u.g
	u.dirty = u.dirty[:0]
	u.grownList = u.grownList[:0]

	u.rootList = u.rootList[:0]
	for _, di := range syndrome {
		d := int32(di)
		u.defect[d] = true
		u.state[d] = clOdd
		u.frontier[d] = append(u.frontier[d], g.Adj[d]...)
		if !u.added[d] {
			u.markDirty(d)
		}
		if !u.isRoot[d] {
			u.isRoot[d] = true
			u.rootList = append(u.rootList, d)
		}
	}

	// Growth steps. Roots are processed in insertion order, so union
	// tie-breaks resolve identically on every run.
	for {
		// Canonicalize and compact the root list: map each entry to its
		// current root, dropping merged-away and duplicate entries.
		live := u.rootList[:0]
		for _, r := range u.rootList {
			rr := u.find(r)
			if u.isRoot[rr] {
				u.isRoot[rr] = false // claim, so duplicates drop below
				live = append(live, rr)
			}
		}
		u.rootList = live
		for _, r := range u.rootList {
			u.isRoot[r] = true
		}
		// Gather current active roots.
		act := u.act[:0]
		for _, r := range u.rootList {
			if u.state[r] == clOdd {
				act = append(act, r)
			}
		}
		u.act = act
		if len(act) == 0 {
			break
		}
		// Pass 1: drop stale frontier entries (grown, outside the window,
		// internal) and find the step k, the fewest unit rounds until some
		// live edge saturates. An edge grows one unit per round for each
		// active cluster at its endpoints.
		k := int32(math.MaxInt32)
		for _, r := range act {
			fr := u.frontier[r][:0]
			for _, ei := range u.frontier[r] {
				e := &u.edges[ei]
				if e.grow >= e.w {
					continue
				}
				if filter {
					if ge := &g.Edges[ei]; ge.MinRound < lo || ge.MaxRound >= hi {
						continue // outside the active window, drop
					}
				}
				ru, rv := u.find(e.u), u.find(e.v)
				if ru == rv {
					continue // internal edge, drop
				}
				fr = append(fr, ei)
				need := e.w - e.grow
				if u.state[ru^rv^r] == clOdd {
					need = (need + 1) / 2 // both sides grow it
				}
				if need < k {
					k = need
				}
			}
			u.frontier[r] = fr
		}
		if k == math.MaxInt32 {
			// No active cluster has anywhere left to grow: give up on
			// its defects rather than spinning (their correction is
			// unknowable anyway).
			break
		}
		// Pass 2: k unit rounds at once. Every live entry gains k per
		// visit; an edge both active sides visit gains 2k unless the first
		// visit already saturated it.
		saturated := u.satur[:0]
		for _, r := range act {
			for _, ei := range u.frontier[r] {
				e := &u.edges[ei]
				if e.grow >= e.w {
					continue
				}
				if e.grow == 0 {
					u.grownList = append(u.grownList, ei)
				}
				e.grow += k
				if e.grow >= e.w {
					saturated = append(saturated, ei)
				}
			}
		}
		u.satur = saturated
		for _, ei := range saturated {
			e := &u.edges[ei]
			ru, rv := u.find(e.u), u.find(e.v)
			// A newly absorbed endpoint contributes its incident edges to
			// the merged cluster's frontier (the boundary node never grows).
			for _, v := range [2]int32{e.u, e.v} {
				if !u.added[v] && v != u.bnd {
					u.markDirty(v)
					r := u.find(v)
					u.frontier[r] = append(u.frontier[r], g.Adj[v]...)
				}
			}
			if ru == rv {
				continue
			}
			nr := u.union(ru, rv)
			u.isRoot[ru] = false
			u.isRoot[rv] = false
			if !u.isRoot[nr] {
				u.isRoot[nr] = true
				u.rootList = append(u.rootList, nr)
			}
		}
	}
	obs := u.peel()
	u.restore()
	return obs
}

// restore re-establishes the pristine invariant over exactly the state this
// decode dirtied: the tracked node set, the boundary node (which union,
// frontier concatenation and peel may touch without an added mark), and the
// partially or fully grown edges.
func (u *UnionFind) restore() {
	for _, v := range u.dirty {
		u.resetNode(v)
	}
	u.resetNode(u.bnd)
	u.state[u.bnd] = clBoundary
	for _, ei := range u.grownList {
		u.edges[ei].grow = 0
	}
}

func (u *UnionFind) resetNode(v int32) {
	u.parent[v] = v
	u.rank[v] = 0
	u.state[v] = 0
	u.defect[v] = false
	u.isRoot[v] = false
	u.added[v] = false
	u.frontier[v] = u.frontier[v][:0]
}

// peel extracts the correction from the grown-edge forest: build a spanning
// forest of each cluster over grown edges (rooting at the boundary node when
// present), then peel leaves outward, emitting an edge whenever the leaf
// carries a defect.
func (u *UnionFind) peel() uint64 {
	g := u.g
	// Build spanning forest over grown edges (struct scratch: peel runs
	// once per Decode, and per-shot allocations dominate batch decoding).
	// Every cluster node — defect or absorbed endpoint — is in the dirty
	// list; visiting the candidates in ascending node order makes each
	// component's forest root the smallest unvisited member, exactly the
	// root the old 0..n-1 scan over all nodes selected, so the extracted
	// correction is bit-identical.
	parentEdge := u.parentEdge
	order := u.order[:0]
	u.peelNodes = append(u.peelNodes[:0], u.dirty...)
	slices.Sort(u.peelNodes)
	stack := u.stack[:0]
	pushRoot := func(v int32) {
		u.visited[v] = true
		stack = append(stack, v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, x)
			for _, ei := range g.Adj[x] {
				e := &u.edges[ei]
				if e.grow < e.w {
					continue
				}
				y := e.u ^ e.v ^ x
				if !u.visited[y] {
					u.visited[y] = true
					parentEdge[y] = ei
					stack = append(stack, y)
				}
			}
		}
	}
	// Root at the boundary first so defects can discharge into it.
	pushRoot(u.bnd)
	for _, v := range u.peelNodes {
		if !u.visited[v] {
			pushRoot(v)
		}
	}
	u.order = order
	u.stack = stack
	// Peel in reverse DFS order (children before parents). carry is
	// pristine false everywhere; seed it with the defect bits of the nodes
	// actually in the forest (order covers every dirty node plus the
	// boundary, and only dirty nodes can be defects).
	var obs uint64
	carry := u.carry
	for _, v := range order {
		carry[v] = u.defect[v]
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		ei := parentEdge[v]
		if ei < 0 {
			continue
		}
		if carry[v] {
			e := &u.edges[ei]
			p := e.u ^ e.v ^ v
			carry[v] = false
			carry[p] = !carry[p]
			obs ^= g.Edges[ei].ObsMask
			u.chosen = append(u.chosen, ei)
		}
	}
	// Restore peel scratch to pristine for the nodes this forest visited.
	for _, v := range order {
		parentEdge[v] = -1
		u.visited[v] = false
		carry[v] = false
	}
	return obs
}
