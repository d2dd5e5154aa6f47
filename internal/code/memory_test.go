package code_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
)

// newPatch returns a pristine distance-d patch of the given lattice kind.
func newPatch(kind lattice.Kind, d int) *code.Patch {
	if kind == lattice.Square {
		return code.NewPatch(lattice.NewSquare(d))
	}
	return code.NewPatch(lattice.NewHeavyHex(d))
}

// isolateCentre returns a pristine distance-d patch with its centre data
// qubit isolated through the deformation instruction set.
func isolateCentre(t *testing.T, kind lattice.Kind, d int) *code.Patch {
	t.Helper()
	p := newPatch(kind, d)
	df := deform.NewDeformer(p)
	if _, err := df.IsolateQubit(p.Lat.DataID[[2]int{d / 2, d / 2}], "centre"); err != nil {
		t.Fatalf("%v d=%d: isolating the centre: %v", kind, d, err)
	}
	return df.Patch
}

// circuitDigest hashes every field of every instruction — Op, Targets, the
// bits of Arg, Recs, Index and Round — plus the circuit's counters, so two
// circuits share a digest only if they are identical.
func circuitDigest(c *circuit.Circuit) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	ints([]int{c.NumQubits, c.NumMeas, c.NumDetectors, c.NumObs, c.NumRounds, len(c.Instructions)})
	for _, in := range c.Instructions {
		put(uint64(in.Op))
		ints(in.Targets)
		put(math.Float64bits(in.Arg))
		ints(in.Recs)
		put(uint64(in.Index))
		put(uint64(in.Round))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMemoryCircuitDigests pins the memory circuits of a fixed matrix byte
// for byte: square and heavy-hex, d ∈ {3,5}, pristine and centre-isolated
// patches, uniform and single-hot-qubit noise, both memory bases, three
// rounds, and the interleaved schedule wherever it is defined (pristine
// square). The digests were captured from the generator before memory
// circuits and deformation timelines shared one epoch loop.
func TestMemoryCircuitDigests(t *testing.T) {
	want := map[string]string{
		"square/d3/pristine/uniform/Z":             "190c62f0e1cf91087153586ffa423d3816176ca4e264c5e3a452ecd8ebe4ba53",
		"square/d3/pristine/uniform/Z/interleaved": "4ecf312521206977c5ac02b21c0898d4ad5db71ad43ff389ed42ad020020d865",
		"square/d3/pristine/uniform/X":             "615a5f82bd24823748737b6ef43fd6ac834aa9b05f0e28e3c364189e90806fd5",
		"square/d3/pristine/uniform/X/interleaved": "9f2e164ea7a0bc101ad65c0ebd7a5551bd60237368fdce61b63dd2354ef97ae6",
		"square/d3/pristine/hot/Z":                 "6f61a5878493e903e5a79f4ac2ae7ec7df0a9845ad40392e03c7c0e9df519b83",
		"square/d3/pristine/hot/Z/interleaved":     "c5741622879edd54213798b017c26333593967092a8928845672941bc9136693",
		"square/d3/pristine/hot/X":                 "b01a941ef81ee03b782471730ffe1db00158f1b08f0afd8000cd2780c0ce000e",
		"square/d3/pristine/hot/X/interleaved":     "e98a7a27a3efbf357a28d294002cbc6a8fde4e3505a924cc7a52f8b79aa5dd5f",
		"square/d3/isolated/uniform/Z":             "dbcb14a809cc56cb252380d5a1f7650055091f8047fd471275bc0cbadcdaf96f",
		"square/d3/isolated/uniform/X":             "d85fc46f9f1ab770263767dcdbec30b039ce850b4d1fe7d794e1495a858ec52b",
		"square/d3/isolated/hot/Z":                 "a5b5f2de1cb6a6cb22ad7fd27440181242b9fc36e3b5a017abe628371ab2247d",
		"square/d3/isolated/hot/X":                 "ea0f7f68d55d03eb83355adc89ca11b23dc3971c2cf21435dd9fef615af48809",
		"square/d5/pristine/uniform/Z":             "cd0d4ab433b2b9296e5801e07ba3bae4d4fd3965f872b00fc805aabbbe1a10c8",
		"square/d5/pristine/uniform/Z/interleaved": "9e906e9a9d00004ae2c0ef67c3819e0d0170fafbed248d99a99c870d6d36350c",
		"square/d5/pristine/uniform/X":             "3a1e96cb8b7daa62dce121d2955a25dece3b8c933d6612e738167fc9b5526557",
		"square/d5/pristine/uniform/X/interleaved": "e0695c0d2a061c3c4ee8fdf8a93be0f715f584b2bf6ac0651e246aeadfe3ed65",
		"square/d5/pristine/hot/Z":                 "e55b311f3a17a929cb4ddd902be8619601fe14605fd55d3cc06917f53c04b2cc",
		"square/d5/pristine/hot/Z/interleaved":     "013e909b486ac7cf34be10867972081359fda99367d38c9567b00c3023d97b2d",
		"square/d5/pristine/hot/X":                 "9938cdcf5eed6d8295ac1ec2b1c9e74723550526e4eb4983b50301264310e9de",
		"square/d5/pristine/hot/X/interleaved":     "78fc9166edfc6403750791c8d8a7da9f9c3eeab718f349c1e5d5ecdda50b347c",
		"square/d5/isolated/uniform/Z":             "164898e12b44faccc703286df1d853e9e3226596ddf4910d7eab5c6948bc99f4",
		"square/d5/isolated/uniform/X":             "75b6e98554511bc3ac64ed6c14f899f70c2d5cedc7abe143ff1a4fe65bb4db9b",
		"square/d5/isolated/hot/Z":                 "e1319455ede1bb4e3c37bc83f9a05aa5e453d93d5d41ebc1c12dcf4d1d0bdab0",
		"square/d5/isolated/hot/X":                 "e9a494a1a9ad79c99d89f315114a53f233dc5f82190fbf173e8e3e24400f36a2",
		"heavy-hex/d3/pristine/uniform/Z":          "e140fee9cf4d78bb67dab564a2f7df93c726550ad5d5cf6b4b70371ff180640a",
		"heavy-hex/d3/pristine/uniform/X":          "3378c2214be972391ef48a55720d0511608333820ca8f03e2a2d3f270c2427d1",
		"heavy-hex/d3/pristine/hot/Z":              "23b93c82de76ed1dafeafef3ed0da3d4783a9f394b3496d3ddc3dac8d26b0e02",
		"heavy-hex/d3/pristine/hot/X":              "1bc7afe0f3acd7e3e4cf4252adb1d80ad35ab16c045ad23e52342d4de88c92ce",
		"heavy-hex/d3/isolated/uniform/Z":          "7e1f74976892af81939ff0cfb3d50932f65ff82e6a8455c95257d488c814a2f0",
		"heavy-hex/d3/isolated/uniform/X":          "a7d3cb1583d153d89d6b142cc0b3269f473eb390f8053355e782a03228c812cb",
		"heavy-hex/d3/isolated/hot/Z":              "ee804f20861797a0bc4fb8692aca6a95141bb9186f532f14b17d6a04fa879ea4",
		"heavy-hex/d3/isolated/hot/X":              "63994eac0313e88f03dd3b4e8235553bbff94bf8dfcc1d8916f4636d6fb14ea7",
		"heavy-hex/d5/pristine/uniform/Z":          "c6df310772db7b2159d4eb004e78625e3c31d02995fc6e70441161fbb42cf7f6",
		"heavy-hex/d5/pristine/uniform/X":          "c51a4e725f66cad97c2250a363a9374687150cbf8f623cfac2834cee7689c7e4",
		"heavy-hex/d5/pristine/hot/Z":              "cc7475f6858805c42733479becf31d30749ba93036d1ce9a3423b89449ed63d4",
		"heavy-hex/d5/pristine/hot/X":              "58cf2d624a9bdadd7cbad06cf15b8c31958a340a30658cd881c30b92fd8de23a",
		"heavy-hex/d5/isolated/uniform/Z":          "c685f1d636e82f546a260a27d9521978e037dd2e008c615ee9ec4ebf291c05ae",
		"heavy-hex/d5/isolated/uniform/X":          "429618fad33a80704101e6a322c9c20369085dc05526aded52aab181f9b0d1c7",
		"heavy-hex/d5/isolated/hot/Z":              "1f9c9324346189db84c2758937624e520a86e1c791139d35a8314d94528674b4",
		"heavy-hex/d5/isolated/hot/X":              "ed904f31411d1d413cc5a4eb7517f0ebe3f7425dd9147fb51b52eb2f38f0d98c",
	}
	seen := map[string]bool{}
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		for _, d := range []int{3, 5} {
			for _, isolated := range []bool{false, true} {
				p, state := newPatch(kind, d), "pristine"
				if isolated {
					p, state = isolateCentre(t, kind, d), "isolated"
				}
				hot := code.HotQubit{Base: code.UniformNoise(1e-3), Qubit: p.Lat.DataID[[2]int{d / 2, d/2 - 1}], P: 2e-2}
				noises := []struct {
					name  string
					model code.NoiseModel
				}{{"uniform", code.UniformNoise(1e-3)}, {"hot", hot}}
				schedules := []bool{false}
				if kind == lattice.Square && !isolated {
					schedules = append(schedules, true)
				}
				for _, nm := range noises {
					for _, basis := range []lattice.Basis{lattice.BasisZ, lattice.BasisX} {
						for _, interleaved := range schedules {
							name := fmt.Sprintf("%v/d%d/%s/%s/%v", kind, d, state, nm.name, basis)
							if interleaved {
								name += "/interleaved"
							}
							c, err := p.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: basis, Noise: nm.model, Interleaved: interleaved})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							seen[name] = true
							if got := circuitDigest(c); got != want[name] {
								t.Errorf("%s: digest %s, want %s", name, got, want[name])
							}
						}
					}
				}
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: pinned digest has no case", name)
		}
	}
}
