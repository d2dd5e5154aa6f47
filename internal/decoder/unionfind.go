package decoder

import (
	"math"
	"math/bits"
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
// endpoints are active. Each step makes one pass over the active frontiers.
// A frontier entry is a half-edge {edge, far endpoint} whose near endpoint
// belongs to the frontier's owner, so a visit costs one find. Growth is
// lazy: an edge records its rate and the step that last visited it, and the
// next visit adds that step's k before computing how many unit rounds the
// edge still needs. The pass drops stale entries, finds k, the fewest unit
// rounds after which some live edge saturates, and collects the edges that
// need exactly k; those saturate and merge their clusters. The active-root
// list carries over between steps, since only a merge can change whether a
// cluster grows. The grown-edge set after each step is the one unit rounds
// reach, and the correction depends only on that set, the defects and the
// peel's ascending-node forest, so results are identical to unit-round
// growth. The peel walks per-node lists of grown edges kept in Adj order,
// and takes its ascending roots from a bitset of the nodes the decode
// touched, so it never scans a node's ungrown edges (see DESIGN.md §18).
//
// Scratch state is kept pristine between calls instead of being reset at
// the start of every decode: each decode tracks exactly the nodes and edges
// it dirties (syndrome defects, absorbed endpoints, visited edges —
// O(cluster) of them, typically a handful) and restores them before
// returning, so per-shot cost scales with the syndrome instead of with
// graph size. At realistic error rates most shots fire a few detectors out
// of hundreds, making this the difference between O(defects) and O(V+E)
// per shot.
type UnionFind struct {
	g *Graph

	// edges is the growth kernel's per-edge state; an edge is grown once
	// grow >= w.
	edges []ufEdge
	// half is the half-edge adjacency in one flat array: node v's
	// half-edges are half[off[v]:off[v+1]], in g.Adj[v] order, so a slot
	// index orders a node's edges as Adj does. slots[e] holds the slots
	// of edge e's half-edges at Edge.U and at Edge.V; the far endpoint of
	// each is the other endpoint.
	half  []halfEdge
	off   []int32
	slots []ufSlots
	bnd   int32 // g.Boundary

	// Scratch state, pristine between Decode calls. Pristine means:
	// parent[i]=i, rank 0, state clBoundary at the boundary node and 0
	// elsewhere, defect/added/inAct/visited/carry all false, parentEdge
	// and grownHead -1, every frontier list empty, dirtyBits zero, every
	// edge's grow and step 0.
	parent []int32
	rank   []uint8
	state  []uint8 // per cluster root: clOdd | clBoundary
	defect []bool
	added  []bool // node's half-edges already pushed to a frontier
	// Per-root candidate boundary half-edge list (lazily cleaned).
	frontier [][]halfEdge

	// act lists the active roots of the current step; inAct marks them.
	// It carries over between steps: the next step keeps the roots that
	// are still active and adds the active roots the merges produced.
	act    []int32
	inAct  []bool
	merged []int32 // roots produced by this step's unions
	satur  []int32 // edges saturated this step
	// ks[s] is step s's k, the unit rounds it grew; steps count from 1.
	ks []int32

	// Dirty tracking: the nodes (excluding the boundary, which is handled
	// unconditionally) and edges this decode has touched and must restore.
	// dirty is exactly the added-marked node set — every node that can
	// receive a union/find/frontier write is either a defect or an absorbed
	// endpoint, and both are added-marked before the write. dirtyBits
	// holds the same set as a bitset, its set words within [dirtyLo,
	// dirtyHi].
	dirty            []int32
	dirtyBits        []uint64
	dirtyLo, dirtyHi int32
	touched          []int32 // edges with step > 0, pushed on the first visit

	// Peeling scratch. grownHead[v] indexes the first of v's grown
	// half-edges in grown, whose links keep each node's list in ascending
	// slot order.
	grownHead  []int32
	grown      []grownLink
	parentEdge []int
	visited    []bool
	carry      []bool
	order      []int32
	stack      []int32
	chosen     []int // edge indices of the correction extracted by peel

	// Every edge's round span lies inside [spanLo, spanHi]; a decode window
	// [lo, hi) covering it filters nothing, so growth skips the test.
	spanLo, spanHi int
}

// ufEdge is one edge's growth state: its integer weight (Edge.WInt), the
// growth it had when step last visited it, and its rate in that step. The
// growth of step `step` itself is added at the next visit.
type ufEdge struct{ w, grow, step, rate int32 }

// ufSlots is the slots in half of one edge's half-edges at Edge.U and at
// Edge.V.
type ufSlots struct{ u, v int32 }

// halfEdge is edge e as seen from one endpoint; far is the other one.
type halfEdge struct{ e, far int32 }

// grownLink is one grown half-edge in a node's grown list: its slot in
// half and the index in grown of the next one, -1 at the end.
type grownLink struct{ slot, next int32 }

// Cluster state bits. A cluster is active — still growing — exactly when
// its state is clOdd: an odd defect count and no boundary node.
const (
	clOdd      uint8 = 1
	clBoundary uint8 = 2
)

// NewUnionFind returns a union-find decoder over g. Its set-up allocates a
// fixed number of flat arrays, whatever the size of g.
func NewUnionFind(g *Graph) *UnionFind {
	n := g.NumDetectors + 1
	halves := 0
	for _, adj := range g.Adj {
		halves += len(adj)
	}
	u := &UnionFind{
		g:          g,
		edges:      make([]ufEdge, len(g.Edges)),
		half:       make([]halfEdge, halves),
		off:        make([]int32, n+1),
		slots:      make([]ufSlots, len(g.Edges)),
		bnd:        int32(g.Boundary),
		parent:     make([]int32, n),
		rank:       make([]uint8, n),
		state:      make([]uint8, n),
		defect:     make([]bool, n),
		added:      make([]bool, n),
		frontier:   make([][]halfEdge, n),
		inAct:      make([]bool, n),
		dirtyBits:  make([]uint64, (n+63)/64),
		grownHead:  make([]int32, n),
		parentEdge: make([]int, n),
		visited:    make([]bool, n),
		carry:      make([]bool, n),
	}
	for i, e := range g.Edges {
		u.edges[i] = ufEdge{w: int32(e.WInt)}
		if i == 0 || e.MinRound < u.spanLo {
			u.spanLo = e.MinRound
		}
		if i == 0 || e.MaxRound > u.spanHi {
			u.spanHi = e.MaxRound
		}
	}
	j := int32(0)
	for v, adj := range g.Adj {
		u.off[v] = j
		for _, ei := range adj {
			e := &g.Edges[ei]
			far := e.U
			if far == v {
				far, u.slots[ei].u = e.V, j
			} else {
				u.slots[ei].v = j
			}
			u.half[j] = halfEdge{e: int32(ei), far: int32(far)}
			j++
		}
	}
	u.off[len(g.Adj)] = j
	// Establish the pristine invariant once; decode restores it on exit.
	for i := 0; i < n; i++ {
		u.parent[i] = int32(i)
		u.parentEdge[i] = -1
		u.grownHead[i] = -1
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

// absorb adds v to the decode: it records v as dirty and pushes its
// half-edges onto its frontier. Every node a decode writes to — defects at
// setup, endpoints absorbed during growth — passes through here exactly
// once (guarded by the added flag), before any union touches it, so v is
// still its own root. The boundary node never grows and never comes here;
// restore() resets it unconditionally.
func (u *UnionFind) absorb(v int32) {
	u.added[v] = true
	u.dirty = append(u.dirty, v)
	w := v >> 6
	u.dirtyBits[w] |= 1 << uint(v&63)
	u.dirtyLo, u.dirtyHi = min(u.dirtyLo, w), max(u.dirtyHi, w)
	u.frontier[v] = append(u.frontier[v], u.half[u.off[v]:u.off[v+1]]...)
}

// linkGrown adds the half-edge in slot j to the grown list of its near
// endpoint v, which stays in ascending slot order, that is in Adj order.
func (u *UnionFind) linkGrown(v, j int32) {
	k := int32(len(u.grown))
	u.grown = append(u.grown, grownLink{slot: j})
	p := &u.grownHead[v]
	for *p >= 0 && u.grown[*p].slot < j {
		p = &u.grown[*p].next
	}
	u.grown[k].next = *p
	*p = k
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
	u.dirtyLo, u.dirtyHi = math.MaxInt32, 0
	u.touched = u.touched[:0]
	u.grown = u.grown[:0]
	u.ks = append(u.ks[:0], 0)

	act := u.act[:0]
	for _, di := range syndrome {
		d := int32(di)
		u.defect[d] = true
		u.state[d] = clOdd
		if !u.added[d] {
			u.absorb(d)
		}
		if !u.inAct[d] {
			u.inAct[d] = true
			act = append(act, d)
		}
	}

	// Growth steps: one pass over the active frontiers, then the merges.
	for step := int32(1); len(act) > 0; step++ {
		// Drop stale frontier entries (grown, outside the window,
		// internal), bring each live edge's growth current and find k, the
		// fewest unit rounds until some live edge saturates, collecting
		// the edges that need exactly k. An edge grows one unit per round
		// for each active cluster at its endpoints.
		k := int32(math.MaxInt32)
		saturated := u.satur[:0]
		for _, r := range act {
			fr := u.frontier[r]
			live := fr[:0]
			for _, h := range fr {
				e := &u.edges[h.e]
				if e.step == step {
					// Met from the other active side this step: live,
					// and already counted.
					live = append(live, h)
					continue
				}
				if e.grow >= e.w {
					continue
				}
				if filter {
					if ge := &g.Edges[h.e]; ge.MinRound < lo || ge.MaxRound >= hi {
						continue // outside the active window, drop
					}
				}
				rf := u.find(h.far)
				if rf == r {
					continue // internal edge, drop
				}
				live = append(live, h)
				if e.step == 0 {
					u.touched = append(u.touched, h.e)
				} else {
					e.grow += u.ks[e.step] * e.rate
				}
				e.step = step
				need := e.w - e.grow
				e.rate = 1
				if u.state[rf] == clOdd {
					e.rate = 2 // both sides grow it
					need = (need + 1) / 2
				}
				if need <= k {
					if need < k {
						k = need
						saturated = saturated[:0]
					}
					saturated = append(saturated, h.e)
				}
			}
			u.frontier[r] = live
		}
		u.satur = saturated
		if k == math.MaxInt32 {
			// No active cluster has anywhere left to grow: give up on
			// its defects rather than spinning (their correction is
			// unknowable anyway).
			break
		}
		u.ks = append(u.ks, k)
		merged := u.merged[:0]
		for _, ei := range saturated {
			u.edges[ei].grow = u.edges[ei].w
			s := u.slots[ei]
			a, b := u.half[s.v].far, u.half[s.u].far // Edge.U, Edge.V
			u.linkGrown(a, s.u)
			u.linkGrown(b, s.v)
			ru, rv := u.find(a), u.find(b)
			// A newly absorbed endpoint contributes its half-edges to the
			// merged cluster's frontier (the boundary node never grows).
			for _, v := range [2]int32{a, b} {
				if !u.added[v] && v != u.bnd {
					u.absorb(v)
				}
			}
			if ru != rv {
				merged = append(merged, u.union(ru, rv))
			}
		}
		u.merged = merged
		// Carry the active list: only union changes a cluster's state or
		// ends a root, so the next step's active roots are this step's
		// that are still active roots plus the active roots unions made.
		next := act[:0]
		for _, r := range act {
			if u.parent[r] == r && u.state[r] == clOdd {
				next = append(next, r)
			} else {
				u.inAct[r] = false
			}
		}
		for _, r := range merged {
			if u.parent[r] == r && u.state[r] == clOdd && !u.inAct[r] {
				u.inAct[r] = true
				next = append(next, r)
			}
		}
		act = next
	}
	u.act = act
	obs := u.peel()
	u.restore()
	return obs
}

// restore re-establishes the pristine invariant over exactly the state this
// decode dirtied: the tracked node set, the boundary node (which union,
// frontier concatenation, grown lists and peel may touch without an added
// mark), and the visited edges.
func (u *UnionFind) restore() {
	for _, v := range u.dirty {
		u.resetNode(v)
		u.dirtyBits[v>>6] = 0
	}
	u.resetNode(u.bnd)
	u.state[u.bnd] = clBoundary
	for _, ei := range u.touched {
		e := &u.edges[ei]
		e.grow, e.step = 0, 0
	}
}

func (u *UnionFind) resetNode(v int32) {
	u.parent[v] = v
	u.rank[v] = 0
	u.state[v] = 0
	u.defect[v] = false
	u.inAct[v] = false
	u.added[v] = false
	u.grownHead[v] = -1
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
	// bitset; visiting the candidates in ascending node order makes each
	// component's forest root the smallest unvisited member, exactly the
	// root the old 0..n-1 scan over all nodes selected, and each node's
	// grown list holds its grown edges in Adj order, so the extracted
	// correction is bit-identical.
	parentEdge := u.parentEdge
	order := u.order[:0]
	stack := u.stack[:0]
	pushRoot := func(v int32) {
		u.visited[v] = true
		stack = append(stack, v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, x)
			for k := u.grownHead[x]; k >= 0; k = u.grown[k].next {
				h := u.half[u.grown[k].slot]
				if !u.visited[h.far] {
					u.visited[h.far] = true
					parentEdge[h.far] = int(h.e)
					stack = append(stack, h.far)
				}
			}
		}
	}
	// Root at the boundary first so defects can discharge into it.
	pushRoot(u.bnd)
	for w := u.dirtyLo; w <= u.dirtyHi; w++ {
		for word := u.dirtyBits[w]; word != 0; word &= word - 1 {
			if v := w<<6 | int32(bits.TrailingZeros64(word)); !u.visited[v] {
				pushRoot(v)
			}
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
			s := u.slots[ei]
			p := u.half[s.u].far ^ u.half[s.v].far ^ v
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
