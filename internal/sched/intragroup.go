package sched

import (
	"fmt"
	"math"
	"sort"
)

// Task is one calibration workload inside an interval: a gate with its
// isolation region and duration.
type Task struct {
	GateID    int
	Region    []int // qubits isolated during calibration (gate qubits + nbr)
	CaliHours float64
	// Members lists all gate IDs calibrated by this task (≥1 after
	// dependency clustering); empty means just GateID.
	Members []int
}

// MemberGates returns the task's gate IDs (GateID alone if Members unset).
func (t *Task) MemberGates() []int {
	if len(t.Members) == 0 {
		return []int{t.GateID}
	}
	return t.Members
}

// Batch is a set of tasks calibrated concurrently.
type Batch struct {
	Tasks []Task
	// Hours is the batch duration: the longest task in it.
	Hours float64
	// DistanceLoss is the worst-case code-distance cost of isolating all
	// the batch's regions simultaneously.
	DistanceLoss int
}

// DefaultDeltaD is the maximum tolerable distance loss during calibration,
// Δd = 4 (paper §7.3): "four single-qubit isolations or the isolation of a
// larger region with a diameter of 4".
const DefaultDeltaD = 4

// Schedule is an ordered list of batches executed within one calibration
// interval.
type Schedule struct {
	Batches []Batch
	// MaxDeltaD is the Δd constraint the schedule was built under.
	MaxDeltaD int
}

// TotalHours returns the schedule makespan T(Cal).
func (s *Schedule) TotalHours() float64 {
	t := 0.0
	for _, b := range s.Batches {
		t += b.Hours
	}
	return t
}

// MaxLoss returns the largest batch distance loss.
func (s *Schedule) MaxLoss() int {
	m := 0
	for _, b := range s.Batches {
		if b.DistanceLoss > m {
			m = b.DistanceLoss
		}
	}
	return m
}

// SpaceTimeCost is the §5.3/§8.2.3 metric: Δd × T(Cal), the product of
// temporary distance loss and total calibration time.
func (s *Schedule) SpaceTimeCost() float64 {
	return float64(s.MaxLoss()) * s.TotalHours()
}

// regionsOverlap reports whether two tasks' isolation regions share a
// qubit: calibration pulses on one would disturb the other's target, so the
// two cannot be calibrated concurrently (the crosstalk constraint |C_t| ≤ 1
// of §5.1).
func regionsOverlap(a, b *Task) bool {
	set := map[int]bool{}
	for _, q := range a.Region {
		set[q] = true
	}
	for _, q := range b.Region {
		if set[q] {
			return true
		}
	}
	return false
}

// LossEstimator maps a set of concurrently isolated regions to the
// worst-case code distance loss. DiameterLoss is the geometric default;
// SumDiameterLoss is the paper's additive "four single-qubit isolations or
// one region of diameter 4" budgeting (§7.3).
type LossEstimator interface {
	Loss(regions [][]int) int
}

// DiameterLoss estimates distance loss as the number of isolated qubits
// projected on each logical axis, taking the worse axis: a single qubit
// costs 1, a diameter-w region costs w.
type DiameterLoss struct {
	// Coord returns the (row, col) of a qubit on the patch's logical grid;
	// nil treats each region as costing its qubit count (upper bound).
	Coord func(q int) (row, col int)
}

// SumDiameterLoss is the paper's §7.3 Δd accounting: each concurrently
// isolated region consumes budget equal to its diameter (a single-qubit
// isolation costs 1, a diameter-w region costs w), and budgets add across
// regions — "four single-qubit isolations or the isolation of a larger
// region with a diameter of 4".
type SumDiameterLoss struct {
	// Coord returns the (row, col) of a qubit on the patch's logical grid;
	// nil treats each region as costing its qubit count (upper bound).
	Coord func(q int) (row, col int)
}

// Loss implements LossEstimator.
func (d SumDiameterLoss) Loss(regions [][]int) int {
	total := 0
	for _, reg := range regions {
		if len(reg) == 0 {
			continue
		}
		if d.Coord == nil {
			total += len(reg)
			continue
		}
		minR, maxR := 1<<30, -(1 << 30)
		minC, maxC := 1<<30, -(1 << 30)
		for _, q := range reg {
			r, c := d.Coord(q)
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		diam := maxR - minR
		if maxC-minC > diam {
			diam = maxC - minC
		}
		total += diam + 1
	}
	return total
}

// Loss implements LossEstimator.
func (d DiameterLoss) Loss(regions [][]int) int {
	if d.Coord == nil {
		n := 0
		for _, r := range regions {
			n += len(r)
		}
		return n
	}
	rows := map[int]bool{}
	cols := map[int]bool{}
	for _, reg := range regions {
		for _, q := range reg {
			r, c := d.Coord(q)
			rows[r] = true
			cols[c] = true
		}
	}
	if len(rows) > len(cols) {
		return len(rows)
	}
	return len(cols)
}

// Strategy selects the intra-group scheduling policy compared in §8.2.3.
type Strategy int

// Scheduling strategies.
const (
	// StrategySequential calibrates one gate at a time.
	StrategySequential Strategy = iota
	// StrategyBulk calibrates as many gates as crosstalk allows, ignoring
	// distance loss.
	StrategyBulk
	// StrategyAdaptive sweeps the Δd constraint and picks the schedule
	// minimizing space-time cost (CaliQEC's policy).
	StrategyAdaptive
)

func (s Strategy) String() string {
	switch s {
	case StrategySequential:
		return "sequential"
	case StrategyBulk:
		return "bulk"
	case StrategyAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ClusterDependent merges tasks whose regions overlap heavily (≥ half of
// the smaller region shared) into joint tasks, reflecting §5.3(1): 2Q-gate
// calibrations depending on 1Q results are scheduled collectively when
// their neighbourhoods coincide.
func ClusterDependent(tasks []Task) []Task {
	n := len(tasks)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	overlap := func(a, b []int) int {
		set := map[int]bool{}
		for _, q := range a {
			set[q] = true
		}
		n := 0
		for _, q := range b {
			if set[q] {
				n++
			}
		}
		return n
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			small := len(tasks[i].Region)
			if len(tasks[j].Region) < small {
				small = len(tasks[j].Region)
			}
			if small == 0 {
				continue
			}
			if 2*overlap(tasks[i].Region, tasks[j].Region) >= small {
				pi, pj := find(i), find(j)
				if pi != pj {
					parent[pi] = pj
				}
			}
		}
	}
	merged := map[int]*Task{}
	var order []int
	for i := 0; i < n; i++ {
		root := find(i)
		m, ok := merged[root]
		if !ok {
			cp := tasks[i]
			cp.Region = append([]int(nil), tasks[i].Region...)
			cp.Members = append([]int(nil), tasks[i].MemberGates()...)
			merged[root] = &cp
			order = append(order, root)
			continue
		}
		// Union regions; joint calibration runs as long as the longest
		// member; keep the first gate ID as the cluster representative.
		seen := map[int]bool{}
		for _, q := range m.Region {
			seen[q] = true
		}
		for _, q := range tasks[i].Region {
			if !seen[q] {
				m.Region = append(m.Region, q)
			}
		}
		if tasks[i].CaliHours > m.CaliHours {
			m.CaliHours = tasks[i].CaliHours
		}
		m.Members = append(m.Members, tasks[i].MemberGates()...)
	}
	out := make([]Task, 0, len(order))
	for _, root := range order {
		sort.Ints(merged[root].Region)
		out = append(out, *merged[root])
	}
	return out
}

// BuildSchedule packs tasks into batches under a strategy; tasks whose
// isolation regions overlap never share a batch. For StrategyAdaptive,
// maxDeltaD bounds the Δd sweep (below 1 selects DefaultDeltaD).
func BuildSchedule(tasks []Task, strat Strategy, loss LossEstimator, maxDeltaD int) (*Schedule, error) {
	if loss == nil {
		loss = DiameterLoss{}
	}
	switch strat {
	case StrategySequential:
		s := &Schedule{MaxDeltaD: 0}
		for _, t := range tasks {
			s.Batches = append(s.Batches, Batch{
				Tasks:        []Task{t},
				Hours:        t.CaliHours,
				DistanceLoss: loss.Loss([][]int{t.Region}),
			})
		}
		return s, nil
	case StrategyBulk:
		return greedyPack(tasks, loss, math.MaxInt32), nil
	case StrategyAdaptive:
		if maxDeltaD < 1 {
			maxDeltaD = DefaultDeltaD
		}
		var best *Schedule
		for dd := 1; dd <= maxDeltaD; dd++ {
			s := greedyPack(tasks, loss, dd)
			if best == nil || s.SpaceTimeCost() < best.SpaceTimeCost() {
				best = s
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("sched: unknown strategy %v", strat)
}

// greedyPack implements §5.3(2): sort tasks by region size descending,
// repeatedly open a batch and add every task that neither conflicts with
// the batch nor pushes its distance loss beyond maxLoss.
func greedyPack(tasks []Task, loss LossEstimator, maxLoss int) *Schedule {
	pending := append([]Task(nil), tasks...)
	sort.SliceStable(pending, func(i, j int) bool {
		return len(pending[i].Region) > len(pending[j].Region)
	})
	s := &Schedule{MaxDeltaD: maxLoss}
	used := make([]bool, len(pending))
	remaining := len(pending)
	for remaining > 0 {
		var b Batch
		var regions [][]int
		for i := range pending {
			if used[i] {
				continue
			}
			ok := true
			for bi := range b.Tasks {
				if regionsOverlap(&pending[i], &b.Tasks[bi]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cand := append(append([][]int(nil), regions...), pending[i].Region)
			l := loss.Loss(cand)
			if len(b.Tasks) > 0 && l > maxLoss {
				continue
			}
			used[i] = true
			remaining--
			b.Tasks = append(b.Tasks, pending[i])
			regions = cand
			b.DistanceLoss = l
			if pending[i].CaliHours > b.Hours {
				b.Hours = pending[i].CaliHours
			}
		}
		if len(b.Tasks) == 0 {
			break // defensive: nothing schedulable
		}
		s.Batches = append(s.Batches, b)
	}
	return s
}
