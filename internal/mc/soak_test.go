package mc

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/obs"
)

// TestCalibrationLoopHeap: a long calibration loop keeps no more than its
// cache. Every event isolates one data qubit of a d=3 patch, square and
// heavy-hex in turn and cycling through the qubits whose timeline builds,
// builds the pristine → isolated → reintegrated timeline at a drifting
// rate, so no circuit repeats, and evaluates it at 64 shots on one engine.
// After two collections the live heap may have grown by at most 1.25 ×
// mc.cache.bytes plus 4 MB: the entries' graphs and programs, their
// headers and the process's fixed overhead. An entry that kept its circuit
// (22 MB of growth against 15 MB allowed), or anything that grew with
// every event, breaks the bound.
func TestCalibrationLoopHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	events := 2000
	if testing.Short() {
		events = 200
	}
	type patchKind struct {
		lat    func(int) *lattice.Lattice
		qubits []int // data qubits whose isolation keeps a timeline buildable
	}
	timeline := func(lat func(int) *lattice.Lattice, q int, p float64) (*circuit.Circuit, error) {
		df := deform.NewDeformer(code.NewPatch(lat(3)))
		if _, err := df.IsolateQubit(q, "cal"); err != nil {
			return nil, err
		}
		return code.TimelineCircuit([]code.Epoch{
			{Patch: code.NewPatch(lat(3)), Rounds: 3},
			{Patch: df.Patch, Rounds: 3},
			{Patch: code.NewPatch(lat(3)), Rounds: 3},
		}, code.TimelineOptions{Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	}
	kinds := []patchKind{{lat: lattice.NewSquare}, {lat: lattice.NewHeavyHex}}
	for i := range kinds {
		k := &kinds[i]
		for _, q := range dataQubits(k.lat(3)) {
			if _, err := timeline(k.lat, q, 1e-3); err == nil {
				k.qubits = append(k.qubits, q)
			}
		}
		if len(k.qubits) == 0 {
			t.Fatal("no data qubit of the d=3 patch can be isolated in a timeline")
		}
	}

	reg := obs.NewRegistry(nil)
	e := New(Options{Metrics: reg})
	before := liveHeap()
	for ev := 0; ev < events; ev++ {
		k := &kinds[ev%2]
		q := k.qubits[ev/2%len(k.qubits)]
		p := 1e-3 * (1 + float64(ev)/float64(events)) // drifts, so every circuit is new
		c, err := timeline(k.lat, q, p)
		if err != nil {
			t.Fatalf("event %d: %v", ev, err)
		}
		mustEval(t, e, Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: 64, Rounds: 9, Seed: uint64(ev), Workers: 1})
	}
	growth := liveHeap() - before
	cached := reg.Snapshot()["mc.cache.bytes"].(float64)
	bound := 1.25*cached + 4<<20
	t.Logf("%d events: live heap grew %.2f MB; mc.cache.bytes %.2f MB, bound %.2f MB", events, growth/(1<<20), cached/(1<<20), bound/(1<<20))
	if growth > bound {
		t.Errorf("live heap grew %.2f MB over %d events, above 1.25 × mc.cache.bytes (%.2f MB) + 4 MB", growth/(1<<20), events, cached/(1<<20))
	}
	runtime.KeepAlive(e)
}

// dataQubits returns l's data qubits in coordinate order.
func dataQubits(l *lattice.Lattice) []int {
	coords := make([][2]int, 0, len(l.DataID))
	for rc := range l.DataID {
		coords = append(coords, rc)
	}
	sort.Slice(coords, func(a, b int) bool {
		if coords[a][0] != coords[b][0] {
			return coords[a][0] < coords[b][0]
		}
		return coords[a][1] < coords[b][1]
	})
	qs := make([]int, len(coords))
	for i, rc := range coords {
		qs[i] = l.DataID[rc]
	}
	return qs
}

// liveHeap returns the live heap in bytes after two collections: one can
// leave objects that only the next sweep frees, and sync.Pool victims.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
