package deform

import (
	"caliqec/internal/code"
	"caliqec/internal/lattice"
	"fmt"
)

// LogEntry is one instruction in a Deformer's replayable log. Targets are
// stored as lattice coordinates (stable across patch enlargement, which
// rebuilds the lattice) rather than qubit IDs.
type LogEntry struct {
	Op       Op
	Row, Col int           // target qubit coordinate (PatchQ_RM: one entry per qubit)
	Basis    lattice.Basis // PatchQ_RM measurement basis
	Tag      string        // caller label, e.g. the calibration task this isolates for
}

// Deformer owns a patch plus the instruction log that produced it from a
// pristine code, enabling patch enlargement (PatchQ_AD rebuilds the lattice
// and replays the log) and reintegration (drop log entries and replay).
type Deformer struct {
	Patch *code.Patch
	Log   []LogEntry
	// History is the append-only audit trail of every instruction ever
	// issued, including OpReintegrate markers that Log drops when it is
	// replayed. Unlike Log it is never rewritten by rebuilds, so
	// VerifyLog can statically check a whole deformation session for
	// legality (double isolation, dangling reintegrates, ops illegal on
	// the lattice kind) without running the simulator.
	History []LogEntry
}

// NewDeformer wraps a pristine patch.
func NewDeformer(p *code.Patch) *Deformer {
	return &Deformer{Patch: p}
}

// QubitAt resolves a coordinate to the qubit ID on the current lattice.
// Coordinates are stable across Enlarge/Shrink rebuilds (south/east growth
// only), so callers holding qubits from an earlier lattice can re-resolve
// them by coordinate.
func (d *Deformer) QubitAt(row, col int) (int, error) {
	for _, q := range d.Patch.Lat.Qubits {
		if q.Row == row && q.Col == col {
			return q.ID, nil
		}
	}
	return -1, fmt.Errorf("deform: no qubit at (%d,%d)", row, col)
}

func (d *Deformer) qubitAt(row, col int) (int, error) { return d.QubitAt(row, col) }

// ApplyQubit applies op to qubit ID q and appends it to the log.
func (d *Deformer) ApplyQubit(op Op, q int, tag string) (*Record, error) {
	rec, err := Apply(d.Patch, op, q)
	if err != nil {
		return nil, err
	}
	qb := d.Patch.Lat.Qubit(q)
	e := LogEntry{Op: op, Row: qb.Row, Col: qb.Col, Tag: tag}
	d.Log = append(d.Log, e)
	d.History = append(d.History, e)
	return rec, nil
}

// IsolateQubit applies the role-appropriate removal instruction to qubit q:
// the fine-grained isolation primitive of the CaliQEC runtime. The mapping
// follows Table 1: data qubits use DataQ_RM on both lattices; measurement
// ancillas use SyndromeQ_RM on the square lattice and the AncQ_RM family on
// the heavy hexagon.
func (d *Deformer) IsolateQubit(q int, tag string) (*Record, error) {
	if d.Patch.Removed[q] {
		return nil, fmt.Errorf("deform: qubit %d already isolated", q)
	}
	var op Op
	switch d.Patch.Lat.Qubit(q).Role {
	case lattice.RoleData:
		op = DataQRM
	case lattice.RoleSyndrome:
		op = SyndromeQRM
	case lattice.RoleBridgeDeg2Hor:
		op = AncQRMHorDeg2
	case lattice.RoleBridgeDeg2Ver:
		op = AncQRMVerDeg2
	case lattice.RoleBridgeDeg3:
		op = AncQRMDeg3
	default:
		return nil, fmt.Errorf("deform: qubit %d has unknown role", q)
	}
	return d.ApplyQubit(op, q, tag)
}

// IsolateRegion isolates a set of qubits (a calibrating gate's qubits plus
// its crosstalk neighbourhood nbr(g), per paper §4). Qubits already removed
// by earlier instructions in the region are skipped. It returns the records
// of the instructions actually applied.
func (d *Deformer) IsolateRegion(qubits []int, tag string) ([]Record, error) {
	var recs []Record
	for _, q := range qubits {
		if d.Patch.Removed[q] {
			continue
		}
		r, err := d.IsolateQubit(q, tag)
		if err != nil {
			return recs, err
		}
		recs = append(recs, *r)
	}
	return recs, nil
}

// Reintegrate reverses every instruction tagged tag: the isolated qubits
// are reset to |0>/|+> and the original stabilizers measured again (paper
// §2.2). Structurally this rebuilds the patch from a pristine code and
// replays the remaining log.
func (d *Deformer) Reintegrate(tag string) error {
	var keep []LogEntry
	found := false
	for _, e := range d.Log {
		if e.Tag == tag {
			found = true
			continue
		}
		keep = append(keep, e)
	}
	if !found {
		return fmt.Errorf("deform: no instructions tagged %q", tag)
	}
	if err := d.rebuild(d.Patch.Lat.Rows, d.Patch.Lat.Cols, keep); err != nil {
		return err
	}
	d.History = append(d.History, LogEntry{Op: OpReintegrate, Row: -1, Col: -1, Tag: tag})
	return nil
}

// Enlarge applies PatchQ_AD along one dimension: the patch grows by two
// data rows (growRows) or two data columns, restoring distance lost to
// isolation. The lattice is rebuilt and the log replayed at the new size.
func (d *Deformer) Enlarge(growRows bool) error {
	rows, cols := d.Patch.Lat.Rows, d.Patch.Lat.Cols
	if growRows {
		rows += 2
	} else {
		cols += 2
	}
	log := append([]LogEntry(nil), d.Log...)
	if err := d.rebuild(rows, cols, log); err != nil {
		return err
	}
	d.Log = append(d.Log, LogEntry{Op: PatchQAD, Row: -1, Col: -1})
	d.History = append(d.History, LogEntry{Op: PatchQAD, Row: -1, Col: -1})
	return nil
}

// Shrink reverses one Enlarge (PatchQ_RM of the added boundary rows or
// columns), used when reintegration makes the extra distance unnecessary.
func (d *Deformer) Shrink(shrinkRows bool) error {
	rows, cols := d.Patch.Lat.Rows, d.Patch.Lat.Cols
	if shrinkRows {
		rows -= 2
	} else {
		cols -= 2
	}
	if rows < 3 || cols < 3 {
		return fmt.Errorf("deform: cannot shrink below 3×3 (have %d×%d)", rows, cols)
	}
	// Entries whose coordinates fall outside the smaller lattice cannot be
	// replayed; they must have been reintegrated first.
	for _, e := range d.Log {
		if e.Op == PatchQAD {
			continue
		}
		if e.Row >= 4*rows-3 || e.Col >= 4*cols-3 {
			return fmt.Errorf("deform: log entry %v lies in the region being removed", e)
		}
	}
	log := append([]LogEntry(nil), d.Log...)
	// Drop one PatchQAD marker.
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Op == PatchQAD {
			log = append(log[:i], log[i+1:]...)
			break
		}
	}
	if err := d.rebuild(rows, cols, log); err != nil {
		return err
	}
	// Patch-level removal marker: Row/Col -1 means "boundary rows/cols",
	// not a single coordinate.
	d.History = append(d.History, LogEntry{Op: PatchQRM, Row: -1, Col: -1})
	return nil
}

// rebuild reconstructs the patch at the given size and replays log.
func (d *Deformer) rebuild(rows, cols int, log []LogEntry) error {
	p := code.NewPatch(lattice.New(d.Patch.Lat.Kind, rows, cols))
	nd := &Deformer{Patch: p}
	for _, e := range log {
		if e.Op == PatchQAD {
			nd.Log = append(nd.Log, e)
			continue
		}
		q, err := nd.qubitAt(e.Row, e.Col)
		if err != nil {
			return err
		}
		if e.Op == PatchQRM {
			if _, err := PatchShrink(p, []int{q}, e.Basis); err != nil {
				return err
			}
			nd.Log = append(nd.Log, e)
			continue
		}
		if _, err := nd.ApplyQubit(e.Op, q, e.Tag); err != nil {
			return err
		}
		// ApplyQubit appended a log entry with the same coordinates; keep
		// the original (it carries the caller's tag and basis).
		nd.Log[len(nd.Log)-1] = e
	}
	d.Patch = nd.Patch
	d.Log = nd.Log
	return nil
}

// DistanceLoss returns how much distance the current deformations cost
// relative to the pristine patch dimensions, per logical basis.
func (d *Deformer) DistanceLoss() (lossX, lossZ int) {
	lossX = d.Patch.Lat.Rows - d.Patch.Distance(lattice.BasisX)
	lossZ = d.Patch.Lat.Cols - d.Patch.Distance(lattice.BasisZ)
	if lossX < 0 {
		lossX = 0
	}
	if lossZ < 0 {
		lossZ = 0
	}
	return
}
