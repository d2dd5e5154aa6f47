package sched

import (
	"caliqec/internal/noise"
	"math"
	"testing"
	"testing/quick"
)

// profilesWithDeadlines builds gates whose drift deadlines at pTar=1 are
// exactly the given hours (Drift.TimeToReach(10·p0·...)=...): we use
// P0=1e-3 and pTar=1e-2 so deadline = TDrift exactly (one decade).
func profilesWithDeadlines(hours ...float64) ([]GateProfile, float64) {
	var gs []GateProfile
	for i, h := range hours {
		gs = append(gs, GateProfile{
			GateID: i,
			Drift:  noise.Drift{P0: 1e-3, TDrift: h},
		})
	}
	return gs, 1e-2
}

// TestFig7Grouping reproduces the paper's Fig. 7 worked example: deadlines
// {5,8,9,13,14} hours give 0.80 cal/h at T_Cali=5 but Algorithm 1 finds
// T_Cali=4 with 0.66 cal/h.
func TestFig7Grouping(t *testing.T) {
	gates, pTar := profilesWithDeadlines(5, 8, 9, 13, 14)
	naive := frequencyFor(gates, pTar, 5)
	if math.Abs(naive-0.80) > 0.01 {
		t.Errorf("frequency at T_Cali=5h = %.3f, want 0.80 (Fig. 7b)", naive)
	}
	gr, err := AssignGroups(gates, pTar)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gr.TCaliHours-4) > 1e-9 {
		t.Errorf("Algorithm 1 chose T_Cali=%.3f, want 4 (Fig. 7c)", gr.TCaliHours)
	}
	if f := gr.TotalFrequency(); math.Abs(f-2.0/3) > 0.01 {
		t.Errorf("optimized frequency %.3f, want 0.66 (Fig. 7c)", f)
	}
	// Group structure: g0 in k=1, g1,g2 in k=2, g3,g4 in k=3.
	if len(gr.Groups[1]) != 1 || len(gr.Groups[2]) != 2 || len(gr.Groups[3]) != 2 {
		t.Errorf("groups %v, want sizes {1:1, 2:2, 3:2}", gr.Groups)
	}
}

// TestGroupingRespectsDeadlines (property): every gate's assigned period
// k·T_Cali never exceeds its drift deadline.
func TestGroupingRespectsDeadlines(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(uint64(seed))
		n := 3 + int(r()%40)
		var hours []float64
		for i := 0; i < n; i++ {
			hours = append(hours, 2+float64(r()%2000)/100)
		}
		gates, pTar := profilesWithDeadlines(hours...)
		gr, err := AssignGroups(gates, pTar)
		if err != nil {
			return false
		}
		for i := range gates {
			period := float64(gr.Period[gates[i].GateID]) * gr.TCaliHours
			if period > gates[i].DeadlineHours(pTar)+1e-9 {
				return false
			}
		}
		// Algorithm 1 must never beat... be beaten by the naive T_min
		// choice.
		tMin := math.Inf(1)
		for i := range gates {
			if d := gates[i].DeadlineHours(pTar); d < tMin {
				tMin = d
			}
		}
		return gr.TotalFrequency() <= frequencyFor(gates, pTar, tMin)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newTestRand(seed uint64) func() uint64 {
	s := seed*2862933555777941757 + 3037000493
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

func TestDueGates(t *testing.T) {
	gates, pTar := profilesWithDeadlines(5, 8, 9, 13, 14)
	gr, err := AssignGroups(gates, pTar)
	if err != nil {
		t.Fatal(err)
	}
	// Interval 6 (k=1,2,3 all divide): every gate due.
	if got := gr.DueGates(6); len(got) != 5 {
		t.Errorf("interval 6 due=%v, want all 5", got)
	}
	// Interval 1: only the k=1 group.
	if got := gr.DueGates(1); len(got) != 1 {
		t.Errorf("interval 1 due=%v, want only the fastest gate", got)
	}
}

func TestPTargetInvertsLER(t *testing.T) {
	for _, d := range []int{11, 25, 41} {
		for _, ler := range []float64{1e-8, 1e-10, 1e-12} {
			p, err := PTarget(d, ler, noise.Alpha, noise.Threshold)
			if err != nil {
				t.Fatalf("d=%d ler=%g: %v", d, ler, err)
			}
			// Round-trip through Eq. (4).
			back := noise.Alpha * math.Pow(p/noise.Threshold, float64(d+1)/2)
			if math.Abs(math.Log(back/ler)) > 1e-6 {
				t.Errorf("d=%d: round-trip LER %.3g vs %.3g", d, back, ler)
			}
			if p >= noise.Threshold {
				t.Errorf("d=%d: p_tar=%.3g above threshold", d, p)
			}
		}
	}
	if _, err := PTarget(3, 0.5, noise.Alpha, noise.Threshold); err == nil {
		t.Error("PTarget should reject targets needing p above threshold")
	}
}

func TestMinDistanceFor(t *testing.T) {
	d, err := MinDistanceFor(1e-10, 2e-3, noise.Alpha, noise.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if d%2 == 0 || d < 3 {
		t.Fatalf("invalid distance %d", d)
	}
	p, err := PTarget(d, 1e-10, noise.Alpha, noise.Threshold)
	if err != nil || p < 2e-3 {
		t.Errorf("d=%d gives p_tar=%.3g (err=%v), want ≥ 2e-3", d, p, err)
	}
	if d > 3 {
		if p2, err2 := PTarget(d-2, 1e-10, noise.Alpha, noise.Threshold); err2 == nil && p2 >= 2e-3 {
			t.Errorf("d-2=%d already satisfies the floor (p=%.3g); MinDistanceFor not minimal", d-2, p2)
		}
	}
}

func mkTasks() []Task {
	return []Task{
		{GateID: 0, Region: []int{0, 1, 2}, CaliHours: 0.10},
		{GateID: 1, Region: []int{2, 3}, CaliHours: 0.05}, // overlaps task 0
		{GateID: 2, Region: []int{10, 11}, CaliHours: 0.08},
		{GateID: 3, Region: []int{20, 21, 22, 23}, CaliHours: 0.12},
		{GateID: 4, Region: []int{30}, CaliHours: 0.03},
	}
}

func TestSequentialSchedule(t *testing.T) {
	s, err := BuildSchedule(mkTasks(), StrategySequential, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Batches) != 5 {
		t.Errorf("%d batches, want 5", len(s.Batches))
	}
	if math.Abs(s.TotalHours()-0.38) > 1e-9 {
		t.Errorf("makespan %.3f, want 0.38 (sum of all)", s.TotalHours())
	}
}

func TestBulkScheduleRespectsCrosstalk(t *testing.T) {
	s, err := BuildSchedule(mkTasks(), StrategyBulk, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tasks 0 and 1 overlap regions: must be in different batches.
	for _, b := range s.Batches {
		has0, has1 := false, false
		for _, task := range b.Tasks {
			if task.GateID == 0 {
				has0 = true
			}
			if task.GateID == 1 {
				has1 = true
			}
		}
		if has0 && has1 {
			t.Error("bulk batch contains both crosstalk-conflicting tasks")
		}
	}
	if len(s.Batches) >= 5 {
		t.Errorf("bulk made %d batches; expected parallelism", len(s.Batches))
	}
}

// TestAdaptiveBeatsBoth: on a workload with heterogeneous region sizes the
// adaptive Δd sweep must have space-time cost ≤ both naive strategies
// (§8.2.3's 2.89×/3.8× improvements have this as their qualitative core).
func TestAdaptiveBeatsBoth(t *testing.T) {
	tasks := mkTasks()
	seq, _ := BuildSchedule(tasks, StrategySequential, nil, 0)
	bulk, _ := BuildSchedule(tasks, StrategyBulk, nil, 0)
	adp, err := BuildSchedule(tasks, StrategyAdaptive, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adp.SpaceTimeCost() > seq.SpaceTimeCost()+1e-9 {
		t.Errorf("adaptive cost %.3f > sequential %.3f", adp.SpaceTimeCost(), seq.SpaceTimeCost())
	}
	if adp.SpaceTimeCost() > bulk.SpaceTimeCost()+1e-9 {
		t.Errorf("adaptive cost %.3f > bulk %.3f", adp.SpaceTimeCost(), bulk.SpaceTimeCost())
	}
	// All tasks scheduled exactly once under every strategy.
	for name, s := range map[string]*Schedule{"seq": seq, "bulk": bulk, "adaptive": adp} {
		n := 0
		for _, b := range s.Batches {
			n += len(b.Tasks)
		}
		if n != len(tasks) {
			t.Errorf("%s scheduled %d tasks, want %d", name, n, len(tasks))
		}
	}
}

func TestClusterDependent(t *testing.T) {
	tasks := []Task{
		{GateID: 0, Region: []int{1, 2, 3, 4}, CaliHours: 0.1},
		{GateID: 1, Region: []int{3, 4}, CaliHours: 0.2}, // fully inside task 0's region
		{GateID: 2, Region: []int{99}, CaliHours: 0.05},
	}
	out := ClusterDependent(tasks)
	if len(out) != 2 {
		t.Fatalf("%d clusters, want 2", len(out))
	}
	// The merged cluster runs as long as its slowest member.
	for _, c := range out {
		if len(c.Region) == 4 && c.CaliHours != 0.2 {
			t.Errorf("merged cluster hours %.2f, want 0.2", c.CaliHours)
		}
	}
}

// TestGroupingWithLinearDrift: Algorithm 1 is drift-model agnostic (§4
// says the exponential model is replaceable); a linear law with matched
// deadlines must produce the identical grouping.
func TestGroupingWithLinearDrift(t *testing.T) {
	expGates, pTar := profilesWithDeadlines(5, 8, 9, 13, 14)
	var linGates []GateProfile
	for _, g := range expGates {
		linGates = append(linGates, GateProfile{
			GateID: g.GateID,
			Drift:  noise.LinearFromExponential(g.Drift.(noise.Drift), pTar),
		})
	}
	ge, err := AssignGroups(expGates, pTar)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := AssignGroups(linGates, pTar)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ge.TCaliHours-gl.TCaliHours) > 1e-9 {
		t.Errorf("T_Cali differs across drift models: %.3f vs %.3f", ge.TCaliHours, gl.TCaliHours)
	}
	for id, k := range ge.Period {
		if gl.Period[id] != k {
			t.Errorf("gate %d grouped k=%d (exp) vs k=%d (linear)", id, k, gl.Period[id])
		}
	}
}

func TestSumDiameterLoss(t *testing.T) {
	coord := func(q int) (int, int) { return q / 10, q % 10 }
	est := SumDiameterLoss{Coord: coord}
	// Four scattered single qubits: 4 units (the paper's "four single-qubit
	// isolations" budget).
	if got := est.Loss([][]int{{0}, {22}, {47}, {85}}); got != 4 {
		t.Errorf("four singles cost %d, want 4", got)
	}
	// One diameter-4 region (rows 2..5, same column): 4 units ("a region
	// with a diameter of 4").
	if got := est.Loss([][]int{{21, 31, 41, 51}}); got != 4 {
		t.Errorf("diameter-4 region cost %d, want 4", got)
	}
	// Nil coord falls back to qubit count.
	if got := (SumDiameterLoss{}).Loss([][]int{{1, 2, 3}}); got != 3 {
		t.Errorf("nil-coord cost %d, want 3", got)
	}
}
