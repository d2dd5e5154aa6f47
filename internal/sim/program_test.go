package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"
	"time"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/lattice"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
)

// TestProgramSharedAcrossSimulators: one Program feeds simulators on four
// goroutines at once, and each must sample exactly the shots a simulator
// that compiled the circuit on its own draws from the same seed. Under
// -race this pins that running a Program never writes to it.
func TestProgramSharedAcrossSimulators(t *testing.T) {
	c := rawCircuit(t)
	p := sim.Compile(c)
	const shots = 700 // two whole batches and a ragged tail
	got := make([][]shotRecord, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.NewSimulator(rng.New(uint64(100+i))).Sample(shots, func(b sim.BatchResult) {
				got[i] = appendShots(got[i], b)
			})
		}(i)
	}
	wg.Wait()
	for i := range got {
		var want []shotRecord
		sim.NewFrameSimulator(c, rng.New(uint64(100+i))).Sample(shots, func(b sim.BatchResult) {
			want = appendShots(want, b)
		})
		if len(got[i]) != len(want) {
			t.Fatalf("goroutine %d sampled %d shots, want %d", i, len(got[i]), len(want))
		}
		for s := range want {
			if got[i][s].obs != want[s].obs || !equalInts(got[i][s].syn, want[s].syn) {
				t.Fatalf("goroutine %d: shot %d differs from a sequential simulator", i, s)
			}
		}
	}
}

// TestCompileAllocsFlat: Compile sizes its op and draw tables and its
// slab before it fills them and NewSimulator allocates one buffer per lane
// kind, so neither allocates per instruction: a d=7 memory circuit costs as many
// allocations as a d=3 one. Every cache miss of the calibration loop
// compiles a deformed circuit no cache has seen.
func TestCompileAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, d := range []int{3, 7} {
		c, err := code.NewPatch(lattice.NewSquare(d)).MemoryCircuit(code.MemoryOptions{
			Rounds: d, Basis: lattice.BasisZ, Noise: code.UniformNoise(1e-3)})
		if err != nil {
			t.Fatal(err)
		}
		allocs[d] = testing.AllocsPerRun(20, func() { sim.Compile(c).NewSimulator(nil) })
	}
	if allocs[3] != allocs[7] {
		t.Errorf("Compile and NewSimulator allocated %v times on the d=3 circuit and %v on the d=7 circuit, want equal", allocs[3], allocs[7])
	}
}

// allOpsCircuit is a six-qubit circuit literal that runs every opcode:
// noisy and noiseless resets and measurements in both bases, every gate,
// every Pauli channel (Y_ERROR above the geometric-skipping threshold) and
// a tick.
func allOpsCircuit() *circuit.Circuit {
	in := func(op circuit.OpCode, arg float64, targets ...int) circuit.Instruction {
		return circuit.Instruction{Op: op, Arg: arg, Targets: targets}
	}
	rec := func(op circuit.OpCode, index int, recs ...int) circuit.Instruction {
		return circuit.Instruction{Op: op, Index: index, Recs: recs}
	}
	return &circuit.Circuit{
		NumQubits: 6, NumMeas: 8, NumDetectors: 5, NumObs: 2,
		Instructions: []circuit.Instruction{
			in(circuit.OpReset, 0, 0, 1, 2),
			in(circuit.OpResetX, 0.02, 3, 4, 5),
			in(circuit.OpH, 0, 0, 3),
			in(circuit.OpS, 0, 1, 4),
			in(circuit.OpCX, 0, 0, 1, 3, 2),
			in(circuit.OpDepolarize2, 0.05, 0, 1, 3, 2),
			in(circuit.OpCZ, 0, 1, 5, 2, 4),
			in(circuit.OpSwap, 0, 0, 5),
			in(circuit.OpXError, 0.03, 0, 2),
			in(circuit.OpYError, 0.2, 1),
			in(circuit.OpZError, 0.03, 3, 4),
			in(circuit.OpDepolarize1, 0.04, 0, 1, 2, 3, 4, 5),
			in(circuit.OpTick, 0),
			in(circuit.OpM, 0.01, 0, 1, 2),
			in(circuit.OpMX, 0.01, 3, 4, 5),
			in(circuit.OpReset, 0.02, 0),
			in(circuit.OpResetX, 0, 1),
			in(circuit.OpM, 0, 0),
			in(circuit.OpMX, 0, 1),
			rec(circuit.OpDetector, 0, 0, 6),
			rec(circuit.OpDetector, 1, 3, 7),
			rec(circuit.OpDetector, 2, 1),
			rec(circuit.OpDetector, 3, 2, 4),
			rec(circuit.OpDetector, 4, 5),
			rec(circuit.OpObservable, 0, 0, 1),
			rec(circuit.OpObservable, 1, 5),
		},
	}
}

// TestAllOpsGoldenDigest pins the sampled stream of a circuit that uses
// every opcode to the digest the closure-compiled sampler produced. The
// memory circuits behind the other digests use no S, CZ, SWAP, RX, MX or
// X/Y/Z_ERROR.
func TestAllOpsGoldenDigest(t *testing.T) {
	h := sha256.New()
	sim.NewFrameSimulator(allOpsCircuit(), rng.New(9)).Sample(700, func(b sim.BatchResult) { writeShots(h, b) })
	const want = "820f17e1597e89b93e9dc121ee8028d5bdd22051713df77ef8fb4ab18e6e0b5b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("stream sha256 %s, want %s", got, want)
	}
}

// TestProgramReleasesCircuit: a Program copies the targets and records its
// ops read, so it keeps no part of its circuit alive. Once the circuit is
// dropped, the arrays behind its Targets and Recs are collected while the
// Program lives on, and the Program still samples what a compile of an
// identical circuit samples. The calibration loop caches one Program per
// deformed circuit it has seen.
func TestProgramReleasesCircuit(t *testing.T) {
	freed := make(chan string, 2)
	build := func(final bool) *circuit.Circuit {
		targets, recs := &[4]int{0, 1, 2, 3}, &[4]int{0, 1, 2, 3}
		if final {
			runtime.SetFinalizer(targets, func(*[4]int) { freed <- "Targets" })
			runtime.SetFinalizer(recs, func(*[4]int) { freed <- "Recs" })
		}
		return &circuit.Circuit{
			NumQubits: 4, NumMeas: 4, NumDetectors: 2,
			Instructions: []circuit.Instruction{
				{Op: circuit.OpDepolarize1, Arg: 0.05, Targets: targets[:]},
				{Op: circuit.OpM, Arg: 0.01, Targets: targets[:]},
				{Op: circuit.OpDetector, Index: 0, Recs: recs[:2]},
				{Op: circuit.OpDetector, Index: 1, Recs: recs[2:]},
			},
		}
	}
	p := sim.Compile(build(true))
	collected := map[string]bool{}
	for i := 0; i < 100 && len(collected) < 2; i++ {
		runtime.GC()
		select {
		case name := <-freed:
			collected[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected["Targets"] || !collected["Recs"] {
		t.Errorf("after dropping the circuit, collected %v of its Targets and Recs arrays; a Program must keep neither alive", collected)
	}
	digest := func(p *sim.Program) string {
		h := sha256.New()
		p.NewSimulator(rng.New(3)).Sample(300, func(b sim.BatchResult) { writeShots(h, b) })
		return hex.EncodeToString(h.Sum(nil))
	}
	if got, want := digest(p), digest(sim.Compile(build(false))); got != want {
		t.Errorf("program of a collected circuit samples %s, a fresh compile %s", got, want)
	}
	runtime.KeepAlive(p)
}
