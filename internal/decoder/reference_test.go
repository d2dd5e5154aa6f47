package decoder

// The union-find decoder as it was before growth advanced from one edge
// saturation to the next: every active cluster grows each frontier edge by
// one weight unit per round, idle rounds included. It is kept only as the
// oracle that TestUnionFindMatchesReference and
// FuzzUnionFindMatchesReference compare UnionFind against; the code below
// is unchanged apart from the type and constructor names.

import "sort"

// referenceUnionFind is a weighted union-find decoder (Delfosse–Nickerson). Clusters
// grow from syndrome defects in integer weight units; when the grown regions
// of two endpoints cover an edge, their clusters merge. Growth stops when
// every cluster is neutral (even defect count or touching the boundary).
// A spanning-forest peeling pass then extracts the correction.
//
// Scratch state is kept pristine between calls instead of being reset at
// the start of every decode: each decode tracks exactly the nodes and edges
// it dirties (syndrome defects, absorbed endpoints, partially grown edges —
// O(cluster) of them, typically a handful) and restores them before
// returning, so per-shot cost scales with the syndrome instead of with
// graph size. At realistic error rates most shots fire a few detectors out
// of hundreds, making this the difference between O(defects) and O(V+E)
// per shot.
type referenceUnionFind struct {
	g *Graph

	// Scratch state, pristine between Decode calls. Pristine means:
	// parent[i]=i, rank/parity 0, hasBnd only at the boundary node,
	// defect/isRoot/added/visited/carry all false, parentEdge -1, every
	// frontier list empty, every edge's grow 0 and grown false.
	parent  []int
	rank    []int
	parity  []int  // defects mod 2 per cluster root
	hasBnd  []bool // cluster contains the boundary node
	visited []bool
	defect  []bool
	grow    []int // growth accumulated on each edge
	grown   []bool
	// Per-root candidate boundary edge list (lazily cleaned).
	frontier [][]int

	// Root-set scratch: rootList holds current cluster roots in insertion
	// order (a deterministic replacement for the old map-based set, whose
	// iteration order could reorder tie-breaking unions between runs);
	// isRoot marks membership.
	rootList []int
	isRoot   []bool
	added    []bool // node's adjacency already pushed to a frontier
	act      []int  // active roots this growth round
	satur    []int  // edges saturated this growth round

	// Dirty tracking: the nodes (excluding the boundary, which is handled
	// unconditionally) and edges this decode has touched and must restore.
	// dirty is exactly the added-marked node set — every node that can
	// receive a union/find/frontier write is either a defect or an absorbed
	// endpoint, and both are added-marked before the write.
	dirty     []int
	grownList []int // edges with grow > 0, pushed on the 0→1 transition

	// Peeling scratch.
	parentEdge []int
	order      []int
	stack      []int
	carry      []bool
	peelNodes  []int // sorted copy of dirty: ascending spanning-forest roots
	chosen     []int // edge indices of the correction extracted by peel

	// Active round window [winLo, winHi): edges whose round span falls
	// outside it are invisible to growth. Whole-shot Decode sets the window
	// to cover everything, so the filter is a no-op there.
	winLo, winHi int
}

// newReferenceUnionFind returns a union-find decoder over g.
func newReferenceUnionFind(g *Graph) *referenceUnionFind {
	n := g.NumDetectors + 1
	u := &referenceUnionFind{
		g:          g,
		parent:     make([]int, n),
		rank:       make([]int, n),
		parity:     make([]int, n),
		hasBnd:     make([]bool, n),
		visited:    make([]bool, n),
		defect:     make([]bool, n),
		grow:       make([]int, len(g.Edges)),
		grown:      make([]bool, len(g.Edges)),
		frontier:   make([][]int, n),
		isRoot:     make([]bool, n),
		added:      make([]bool, n),
		parentEdge: make([]int, n),
		carry:      make([]bool, n),
	}
	// Establish the pristine invariant once; decode restores it on exit.
	for i := 0; i < n; i++ {
		u.parent[i] = i
		u.parentEdge[i] = -1
	}
	u.hasBnd[g.Boundary] = true
	return u
}

func (u *referenceUnionFind) find(v int) int {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

// union merges the clusters of roots a and b and returns the new root.
func (u *referenceUnionFind) union(a, b int) int {
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
	u.parity[a] ^= u.parity[b]
	u.hasBnd[a] = u.hasBnd[a] || u.hasBnd[b]
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

// active reports whether the cluster rooted at r still needs to grow.
func (u *referenceUnionFind) active(r int) bool { return u.parity[r] == 1 && !u.hasBnd[r] }

// Decode implements Decoder.
func (u *referenceUnionFind) Decode(syndrome []int) uint64 {
	const maxInt = int(^uint(0) >> 1)
	return u.decode(syndrome, 0, maxInt)
}

// DecodeWindow decodes the syndrome using only edges whose round span lies
// entirely inside [lo, hi), and returns the predicted observable mask along
// with the correction's edge indices appended to chosen. The edge filter is
// the only difference from Decode: with a window covering every round the
// two are bit-identical, growth order included. The returned slice aliases
// chosen's backing array when capacity allows.
func (u *referenceUnionFind) DecodeWindow(syndrome []int, lo, hi int, chosen []int) (uint64, []int) {
	obs := u.decode(syndrome, lo, hi)
	return obs, append(chosen, u.chosen...)
}

// markDirty records v as touched this decode. Every node a decode writes to
// — defects at setup, endpoints absorbed during growth — passes through
// here exactly once (guarded by the added flag), except the boundary node,
// which restore() resets unconditionally.
func (u *referenceUnionFind) markDirty(v int) {
	u.added[v] = true
	u.dirty = append(u.dirty, v)
}

func (u *referenceUnionFind) decode(syndrome []int, lo, hi int) uint64 {
	u.chosen = u.chosen[:0]
	if len(syndrome) == 0 {
		return 0
	}
	u.winLo, u.winHi = lo, hi
	g := u.g
	u.dirty = u.dirty[:0]
	u.grownList = u.grownList[:0]

	u.rootList = u.rootList[:0]
	for _, d := range syndrome {
		u.defect[d] = true
		u.parity[d] = 1
		u.frontier[d] = append(u.frontier[d], g.Adj[d]...)
		if !u.added[d] {
			u.markDirty(d)
		}
		if !u.isRoot[d] {
			u.isRoot[d] = true
			u.rootList = append(u.rootList, d)
		}
	}

	// Growth rounds: every active cluster grows each frontier edge by one
	// unit; saturated edges merge clusters. Roots are processed in
	// insertion order, so union tie-breaks resolve identically on every
	// run.
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
			if u.active(r) {
				act = append(act, r)
			}
		}
		u.act = act
		if len(act) == 0 {
			break
		}
		saturated := u.satur[:0]
		progress := false
		for _, r := range act {
			fr := u.frontier[r][:0]
			for _, ei := range u.frontier[r] {
				e := &g.Edges[ei]
				if u.grown[ei] {
					continue
				}
				if e.MinRound < u.winLo || e.MaxRound >= u.winHi {
					continue // outside the active window, drop
				}
				ru, rv := u.find(e.U), u.find(e.V)
				if ru == rv {
					continue // internal edge, drop
				}
				if u.grow[ei] == 0 {
					u.grownList = append(u.grownList, ei)
				}
				u.grow[ei]++
				progress = true
				if u.grow[ei] >= e.WInt {
					u.grown[ei] = true
					saturated = append(saturated, ei)
				} else {
					fr = append(fr, ei)
				}
			}
			u.frontier[r] = fr
		}
		u.satur = saturated
		if !progress {
			// Disconnected defect with nowhere to grow: give up on it
			// rather than spinning (its correction is unknowable anyway).
			break
		}
		for _, ei := range saturated {
			e := &g.Edges[ei]
			ru, rv := u.find(e.U), u.find(e.V)
			// A newly absorbed endpoint contributes its incident edges to
			// the merged cluster's frontier (the boundary node never grows).
			for _, v := range [2]int{e.U, e.V} {
				if !u.added[v] && v != g.Boundary {
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
func (u *referenceUnionFind) restore() {
	for _, v := range u.dirty {
		u.resetNode(v)
	}
	u.resetNode(u.g.Boundary)
	for _, ei := range u.grownList {
		u.grow[ei] = 0
		u.grown[ei] = false
	}
}

func (u *referenceUnionFind) resetNode(v int) {
	u.parent[v] = v
	u.rank[v] = 0
	u.parity[v] = 0
	u.hasBnd[v] = v == u.g.Boundary
	u.defect[v] = false
	u.isRoot[v] = false
	u.added[v] = false
	u.frontier[v] = u.frontier[v][:0]
}

// peel extracts the correction from the grown-edge forest: build a spanning
// forest of each cluster over grown edges (rooting at the boundary node when
// present), then peel leaves outward, emitting an edge whenever the leaf
// carries a defect.
func (u *referenceUnionFind) peel() uint64 {
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
	sort.Ints(u.peelNodes)
	stack := u.stack[:0]
	pushRoot := func(v int) {
		u.visited[v] = true
		stack = append(stack, v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, x)
			for _, ei := range g.Adj[x] {
				if !u.grown[ei] {
					continue
				}
				e := &g.Edges[ei]
				y := e.U
				if y == x {
					y = e.V
				}
				if !u.visited[y] {
					u.visited[y] = true
					parentEdge[y] = ei
					stack = append(stack, y)
				}
			}
		}
	}
	// Root at the boundary first so defects can discharge into it.
	pushRoot(g.Boundary)
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
			e := &g.Edges[ei]
			p := e.U
			if p == v {
				p = e.V
			}
			carry[v] = false
			carry[p] = !carry[p]
			obs ^= e.ObsMask
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
