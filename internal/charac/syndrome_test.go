package charac

import (
	"caliqec/internal/code"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/noise"
	"caliqec/internal/rng"
	"fmt"
	"slices"
	"testing"
)

// TestDetectorOwnersAligned pins DetectorOwners to the circuit generator's
// detector order: for every detector of the memory circuit, the qubit whose
// measurement closes it must be one of the qubits its table entry watches.
func TestDetectorOwnersAligned(t *testing.T) {
	const rounds = 4
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		for _, d := range []int{3, 5} {
			for _, isolated := range []bool{false, true} {
				var p *code.Patch
				if kind == lattice.Square {
					p = code.NewPatch(lattice.NewSquare(d))
				} else {
					p = code.NewPatch(lattice.NewHeavyHex(d))
				}
				if isolated {
					df := deform.NewDeformer(p)
					if _, err := df.IsolateQubit(p.Lat.DataID[[2]int{d / 2, d / 2}], "centre"); err != nil {
						t.Fatalf("%v d=%d: %v", kind, d, err)
					}
					p = df.Patch
				}
				for _, basis := range []lattice.Basis{lattice.BasisZ, lattice.BasisX} {
					name := fmt.Sprintf("%v d=%d isolated=%v memory-%v", kind, d, isolated, basis)
					c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: basis})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					owners := DetectorOwners(p, rounds, basis)
					if len(owners) != c.NumDetectors {
						t.Fatalf("%s: owners table has %d entries, circuit has %d detectors", name, len(owners), c.NumDetectors)
					}
					for i, q := range c.DetectorQubits() {
						if !slices.Contains(owners[i], q) {
							t.Errorf("%s: detector %d is closed by qubit %d, which its owners %v omit", name, i, q, owners[i])
						}
					}
				}
			}
		}
	}
}

// TestLocalizeDriftFindsHotQubit is the headline for syndrome-based drift
// monitoring: elevate one data qubit's noise 10×, compare detector rates
// against the calibrated baseline, and check the ranking puts the hot qubit
// (or one of its immediate check-ancilla neighbours) on top.
func TestLocalizeDriftFindsHotQubit(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	const (
		d      = 5
		rounds = 5
		shots  = 60000
		base   = 1.5e-3
	)
	p := code.NewPatch(lattice.NewSquare(d))
	hot := p.Lat.DataID[[2]int{2, 2}]

	cBase, err := p.MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(base)})
	if err != nil {
		t.Fatal(err)
	}
	nm := noise.NewMap(base)
	nm.Gate1Q[hot] = base * 10
	nm.MeasQ[hot] = base * 10
	nm.ResetQ[hot] = base * 10
	cHot, err := p.MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: nm})
	if err != nil {
		t.Fatal(err)
	}

	baseline := DetectorRates(cBase, shots, rng.New(1))
	observed := DetectorRates(cHot, shots, rng.New(2))
	owners := DetectorOwners(p, rounds, lattice.BasisZ)
	ranking := LocalizeDrift(baseline, observed, shots, owners, p.Lat.NumQubits())
	if len(ranking) == 0 {
		t.Fatal("empty ranking")
	}
	// The hot qubit must rank within the top 3 (its adjacent check
	// ancillas share its detectors and may tie).
	pos := -1
	for i, s := range ranking {
		if s.Qubit == hot {
			pos = i
			break
		}
	}
	t.Logf("top suspects: %v (hot qubit %d at position %d)", ranking[:5], hot, pos)
	if pos < 0 || pos > 2 {
		t.Errorf("hot qubit %d ranked at position %d, want top 3", hot, pos)
	}
	// And the baseline device must NOT flag anything strongly: re-run
	// against itself with a different seed.
	null := DetectorRates(cBase, shots, rng.New(3))
	nullRank := LocalizeDrift(baseline, null, shots, owners, p.Lat.NumQubits())
	if nullRank[0].Score > ranking[0].Score/3 {
		t.Errorf("null-hypothesis top score %.2f too close to hot top score %.2f",
			nullRank[0].Score, ranking[0].Score)
	}
}
