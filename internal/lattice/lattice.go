// Package lattice defines the physical qubit layouts CaliQEC targets: the
// square (rotated surface code) lattice used by Rigetti-style devices and
// the heavy-hexagon lattice used by IBM-style devices.
//
// A Lattice is pure geometry: qubits with roles and coordinates, the
// hardware coupling graph, and the stabilizer plaquettes with their
// measurement resources (a single syndrome qubit on the square lattice, a
// seven-ancilla "S"-shaped bridge on the heavy hexagon). Code semantics
// (stabilizer operators, circuits, logicals) live in internal/code, and the
// deformation instruction sets in internal/deform consume the roles and
// adjacency defined here.
//
// Patches may be rectangular (Rows×Cols data qubits, both odd): dynamic
// code enlargement (PatchQ_AD) grows one dimension by two data rows or
// columns, which preserves the boundary stabilizer pattern.
package lattice

import "fmt"

// Kind identifies the lattice family.
type Kind uint8

// Lattice kinds.
const (
	Square Kind = iota
	HeavyHex
)

func (k Kind) String() string {
	if k == Square {
		return "square"
	}
	return "heavy-hex"
}

// Basis is the stabilizer type of a plaquette.
type Basis uint8

// Stabilizer bases.
const (
	BasisX Basis = iota
	BasisZ
)

func (b Basis) String() string {
	if b == BasisX {
		return "X"
	}
	return "Z"
}

// Opposite returns the other basis.
func (b Basis) Opposite() Basis {
	if b == BasisX {
		return BasisZ
	}
	return BasisX
}

// Role classifies a physical qubit.
type Role uint8

// Qubit roles. The bridge roles follow the paper's §6.1 taxonomy for the
// heavy hexagon: degree-3 ancillas attach to exactly one data qubit, while
// degree-2 ancillas only link other ancillas. "Vertical" degree-2 ancillas
// (qb/qf in the paper's Fig. 8) sit inside an edge segment shared by two
// plaquettes; the "horizontal" degree-2 ancilla (qd) is a plaquette-private
// middle link.
const (
	RoleData Role = iota
	RoleSyndrome
	RoleBridgeDeg3    // heavy-hex: attaches one data qubit (qa,qc,qe,qg)
	RoleBridgeDeg2Ver // heavy-hex: shared segment middle (qb,qf)
	RoleBridgeDeg2Hor // heavy-hex: plaquette-private middle (qd)
)

func (r Role) String() string {
	switch r {
	case RoleData:
		return "data"
	case RoleSyndrome:
		return "syndrome"
	case RoleBridgeDeg3:
		return "deg3"
	case RoleBridgeDeg2Ver:
		return "deg2v"
	case RoleBridgeDeg2Hor:
		return "deg2h"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Qubit is one physical qubit.
type Qubit struct {
	ID   int
	Role Role
	// Row/Col are on a refined grid so every qubit (including bridge
	// ancillas) has distinct integer coordinates: data qubit (r,c) of the
	// code sits at (4r, 4c).
	Row, Col int
}

// Corner indices into Plaquette.Corners.
const (
	NW = iota
	NE
	SW
	SE
)

// Plaquette is one stabilizer of the code with its measurement resources.
type Plaquette struct {
	ID    int
	Basis Basis
	// Cell coordinates in the (Rows+1)×(Cols+1) plaquette grid.
	CellRow, CellCol int
	// Corners holds the data qubit at each geometric corner (NW, NE, SW,
	// SE), or -1 where the corner falls outside the patch.
	Corners [4]int
	// Data lists the present data qubit IDs (the non-negative Corners).
	Data []int
	// Syndrome is the qubit whose measurement yields the stabilizer value:
	// the single ancilla on the square lattice, the readout end of the
	// bridge on the heavy hexagon.
	Syndrome int
	// Bridge is the full ordered ancilla path for heavy-hex plaquettes
	// (qa qb qc [qd qe qf qg]); nil on the square lattice. Weight-2
	// boundary plaquettes carry only their single three-ancilla segment.
	Bridge []int
	// DataAttach maps each degree-3 bridge ancilla to its data qubit
	// (heavy-hex only).
	DataAttach map[int]int
}

// Weight returns the stabilizer weight (number of data qubits).
func (p *Plaquette) Weight() int { return len(p.Data) }

// Lattice is a full device layout for one code patch.
type Lattice struct {
	Kind Kind
	// Rows and Cols are the data-grid dimensions (both odd). The vertical
	// logical operator has length Rows, the horizontal one length Cols, so
	// the code distance of the pristine patch is min(Rows, Cols).
	Rows, Cols int
	Qubits     []Qubit
	Plaquettes []Plaquette
	// DataID maps code-grid coordinates (r, c) to the data qubit ID.
	DataID map[[2]int]int
	adj    map[int][]int
}

// D returns the pristine code distance, min(Rows, Cols).
func (l *Lattice) D() int {
	if l.Rows < l.Cols {
		return l.Rows
	}
	return l.Cols
}

// NumQubits returns the total physical qubit count.
func (l *Lattice) NumQubits() int { return len(l.Qubits) }

// NumData returns the data qubit count (Rows·Cols).
func (l *Lattice) NumData() int { return len(l.DataID) }

// Neighbors returns the coupling-graph neighbours of qubit q.
func (l *Lattice) Neighbors(q int) []int { return l.adj[q] }

// Qubit returns the qubit record for id.
func (l *Lattice) Qubit(id int) Qubit { return l.Qubits[id] }

// PlaquettesWithData returns the plaquettes of the given basis whose
// support contains data qubit q.
func (l *Lattice) PlaquettesWithData(q int, basis Basis) []int {
	var out []int
	for i := range l.Plaquettes {
		p := &l.Plaquettes[i]
		if p.Basis != basis {
			continue
		}
		for _, dq := range p.Data {
			if dq == q {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

func (l *Lattice) addQubit(role Role, row, col int) int {
	id := len(l.Qubits)
	l.Qubits = append(l.Qubits, Qubit{ID: id, Role: role, Row: row, Col: col})
	return id
}

func (l *Lattice) addEdge(a, b int) {
	l.adj[a] = append(l.adj[a], b)
	l.adj[b] = append(l.adj[b], a)
}

// cellBasis returns the checkerboard basis of plaquette cell (i, j):
// X on even i+j, Z on odd.
func cellBasis(i, j int) Basis {
	if (i+j)%2 == 0 {
		return BasisX
	}
	return BasisZ
}

// cellIncluded reports whether plaquette cell (i,j) exists in a rows×cols
// rotated surface code: all interior cells, X cells on the north/south
// boundary rows, Z cells on the west/east boundary columns, no corners.
func cellIncluded(rows, cols, i, j int) bool {
	interiorR := i >= 1 && i <= rows-1
	interiorC := j >= 1 && j <= cols-1
	switch {
	case interiorR && interiorC:
		return true
	case (i == 0 || i == rows) && interiorC:
		return cellBasis(i, j) == BasisX
	case (j == 0 || j == cols) && interiorR:
		return cellBasis(i, j) == BasisZ
	}
	return false
}

// cellCorners returns the four data coordinates of cell (i,j) in NW, NE,
// SW, SE order; out-of-range corners are (-1,-1).
func cellCorners(rows, cols, i, j int) [4][2]int {
	var out [4][2]int
	for k, rc := range [4][2]int{{i - 1, j - 1}, {i - 1, j}, {i, j - 1}, {i, j}} {
		if rc[0] >= 0 && rc[0] < rows && rc[1] >= 0 && rc[1] < cols {
			out[k] = rc
		} else {
			out[k] = [2]int{-1, -1}
		}
	}
	return out
}

func validateDims(rows, cols int) {
	if rows < 3 || rows%2 == 0 || cols < 3 || cols%2 == 0 {
		panic(fmt.Sprintf("lattice: dimensions must be odd integers ≥ 3, got %d×%d", rows, cols)) //lint:allow panicpolicy constructor misuse: dimensions are fixed at call sites
	}
}

// New builds a rows×cols layout of the given kind.
func New(kind Kind, rows, cols int) *Lattice {
	if kind == Square {
		return NewSquareRect(rows, cols)
	}
	return NewHeavyHexRect(rows, cols)
}

// NewSquare builds the distance-d rotated-surface-code layout on a square
// lattice.
func NewSquare(d int) *Lattice { return NewSquareRect(d, d) }

// NewSquareRect builds a rows×cols rotated-surface-code layout on a square
// lattice: rows·cols data qubits plus one syndrome qubit per plaquette.
func NewSquareRect(rows, cols int) *Lattice {
	validateDims(rows, cols)
	l := &Lattice{Kind: Square, Rows: rows, Cols: cols, DataID: map[[2]int]int{}, adj: map[int][]int{}}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			l.DataID[[2]int{r, c}] = l.addQubit(RoleData, 4*r, 4*c)
		}
	}
	for i := 0; i <= rows; i++ {
		for j := 0; j <= cols; j++ {
			if !cellIncluded(rows, cols, i, j) {
				continue
			}
			syn := l.addQubit(RoleSyndrome, 4*i-2, 4*j-2)
			p := Plaquette{
				ID:      len(l.Plaquettes),
				Basis:   cellBasis(i, j),
				CellRow: i, CellCol: j,
				Syndrome: syn,
			}
			for k, rc := range cellCorners(rows, cols, i, j) {
				if rc[0] < 0 {
					p.Corners[k] = -1
					continue
				}
				dq := l.DataID[rc]
				p.Corners[k] = dq
				p.Data = append(p.Data, dq)
				l.addEdge(syn, dq)
			}
			l.Plaquettes = append(l.Plaquettes, p)
		}
	}
	return l
}

// NewHeavyHex builds the distance-d heavy-hexagon layout.
func NewHeavyHex(d int) *Lattice { return NewHeavyHexRect(d, d) }

// NewHeavyHexRect builds a rows×cols heavy-hexagon layout. Stabilizer
// plaquettes are the same rotated-surface-code cells as on the square
// lattice, but each is measured through an "S"-shaped ancilla bridge:
//
//	q1 — qa — qb — qc — q2        (segment of the plaquette's north edge)
//	                |
//	                qd            (plaquette-private middle)
//	                |
//	q3 — qe — qf — qg — q4        (segment of the plaquette's south edge)
//
// Horizontal-edge segments are shared between the plaquette above and the
// plaquette below the edge, reproducing the paper's shared-ancilla
// structure (§6.1): degree-3 ancillas attach one data qubit each, degree-2
// ancillas bridge ancillas only. West/east weight-2 Z plaquettes span a
// vertical data pair and use a private vertical segment.
func NewHeavyHexRect(rows, cols int) *Lattice {
	validateDims(rows, cols)
	l := &Lattice{Kind: HeavyHex, Rows: rows, Cols: cols, DataID: map[[2]int]int{}, adj: map[int][]int{}}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			l.DataID[[2]int{r, c}] = l.addQubit(RoleData, 4*r, 4*c)
		}
	}
	// seg holds the shared three-ancilla segment of each horizontal data
	// edge, keyed by (row, leftCol): [A, B, C] with A attached to the left
	// data qubit and C to the right.
	type segment struct{ a, b, c int }
	segs := map[[2]int]segment{}
	segFor := func(r, c int) segment {
		key := [2]int{r, c}
		if s, ok := segs[key]; ok {
			return s
		}
		dl := l.DataID[[2]int{r, c}]
		dr := l.DataID[[2]int{r, c + 1}]
		a := l.addQubit(RoleBridgeDeg3, 4*r, 4*c+1)
		b := l.addQubit(RoleBridgeDeg2Ver, 4*r, 4*c+2)
		cc := l.addQubit(RoleBridgeDeg3, 4*r, 4*c+3)
		l.addEdge(dl, a)
		l.addEdge(a, b)
		l.addEdge(b, cc)
		l.addEdge(cc, dr)
		s := segment{a, b, cc}
		segs[key] = s
		return s
	}
	for i := 0; i <= rows; i++ {
		for j := 0; j <= cols; j++ {
			if !cellIncluded(rows, cols, i, j) {
				continue
			}
			p := Plaquette{
				ID:      len(l.Plaquettes),
				Basis:   cellBasis(i, j),
				CellRow: i, CellCol: j,
				DataAttach: map[int]int{},
			}
			corners := cellCorners(rows, cols, i, j)
			for k, rc := range corners {
				if rc[0] < 0 {
					p.Corners[k] = -1
					continue
				}
				p.Corners[k] = l.DataID[rc]
				p.Data = append(p.Data, l.DataID[rc])
			}
			hasNorth := i >= 1 && j >= 1 && j <= cols-1
			hasSouth := i <= rows-1 && j >= 1 && j <= cols-1
			switch {
			case j == 0 || j == cols:
				// West/east boundary Z plaquette: vertical data pair
				// (i-1, c), (i, c) joined by a private vertical segment.
				c := 0
				if j == cols {
					c = cols - 1
				}
				dt := l.DataID[[2]int{i - 1, c}]
				db := l.DataID[[2]int{i, c}]
				col := -2
				if j == cols {
					col = 4*(cols-1) + 2
				}
				a := l.addQubit(RoleBridgeDeg3, 4*i-3, col)
				b := l.addQubit(RoleBridgeDeg2Ver, 4*i-2, col)
				cc := l.addQubit(RoleBridgeDeg3, 4*i-1, col)
				l.addEdge(dt, a)
				l.addEdge(a, b)
				l.addEdge(b, cc)
				l.addEdge(cc, db)
				p.Bridge = []int{a, b, cc}
				p.Syndrome = cc
				p.DataAttach[a] = dt
				p.DataAttach[cc] = db
			case hasNorth && hasSouth:
				// Full weight-4 plaquette: north segment + middle + south.
				n := segFor(i-1, j-1)
				s := segFor(i, j-1)
				mid := l.addQubit(RoleBridgeDeg2Hor, 4*i-2, 4*j-2)
				l.addEdge(n.c, mid)
				l.addEdge(mid, s.a)
				p.Bridge = []int{n.a, n.b, n.c, mid, s.a, s.b, s.c}
				p.Syndrome = s.c
				p.DataAttach[n.a] = l.DataID[[2]int{i - 1, j - 1}]
				p.DataAttach[n.c] = l.DataID[[2]int{i - 1, j}]
				p.DataAttach[s.a] = l.DataID[[2]int{i, j - 1}]
				p.DataAttach[s.c] = l.DataID[[2]int{i, j}]
			case hasNorth:
				// South-boundary weight-2 X plaquette: only the north edge.
				n := segFor(i-1, j-1)
				p.Bridge = []int{n.a, n.b, n.c}
				p.Syndrome = n.c
				p.DataAttach[n.a] = l.DataID[[2]int{i - 1, j - 1}]
				p.DataAttach[n.c] = l.DataID[[2]int{i - 1, j}]
			case hasSouth:
				// North-boundary weight-2 X plaquette: only the south edge.
				s := segFor(i, j-1)
				p.Bridge = []int{s.a, s.b, s.c}
				p.Syndrome = s.c
				p.DataAttach[s.a] = l.DataID[[2]int{i, j - 1}]
				p.DataAttach[s.c] = l.DataID[[2]int{i, j}]
			}
			l.Plaquettes = append(l.Plaquettes, p)
		}
	}
	return l
}
