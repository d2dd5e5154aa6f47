package sim

import (
	"math"
	"testing"

	"caliqec/internal/rng"
)

// plainMask is the bernoulli sampler as it was before the first-gap cut:
// on the geometric-skipping path it computes every gap, the first one
// included, with math.Log1p. It is kept only as the oracle the cut is
// compared against.
func plainMask(r *rng.RNG, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	if p < geomThreshold {
		return plainGaps(r, math.Log1p(-p), r.Float64())
	}
	var mask uint64
	for i := 0; i < 64; i++ {
		if r.Float64() < p {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// plainGaps is plainMask's geometric-skipping loop, given the word's first
// uniform draw u.
func plainGaps(r *rng.RNG, logq, u float64) uint64 {
	var mask uint64
	i := 0
	for {
		gap := int(math.Log1p(-u) / logq)
		i += gap
		if i >= 64 {
			return mask
		}
		mask |= 1 << uint(i)
		i++
		u = r.Float64()
	}
}

// cutProbabilities spans the geometric-skipping range: the benchmark
// grids' 1e-3 to 5e-3, far below them, and up to just under geomThreshold.
var cutProbabilities = []float64{1e-9, 1e-6, 1e-4, 1e-3, 2e-3, 5e-3, 0.02, 0.05, 0.0999}

// compareWords draws words masks from two generators seeded with seed,
// one through the channel and one through the plain sampler, and reports
// the first word whose mask differs, or generator states that differ
// afterwards.
func compareWords(t *testing.T, p float64, seed uint64, words int) {
	t.Helper()
	ch := newChannel(p)
	got, want := rng.New(seed), rng.New(seed)
	for w := 0; w < words; w++ {
		if g, wt := ch.mask(got), plainMask(want, p); g != wt {
			t.Fatalf("p=%g seed=%d word %d: mask %#x, plain sampler %#x", p, seed, w, g, wt)
		}
	}
	if *got != *want {
		t.Fatalf("p=%g seed=%d: generator state differs from the plain sampler's after %d words", p, seed, words)
	}
}

// TestChannelMatchesPlainSampler: the first-gap cut returns exactly the
// plain sampler's masks and consumes exactly its draws, over 10⁶ words per
// probability and over every representable first draw within 1e-12 of
// each cut, where the two paths meet.
func TestChannelMatchesPlainSampler(t *testing.T) {
	for _, p := range cutProbabilities {
		compareWords(t, p, 19, 1_000_000)

		ch := newChannel(p)
		const ulp = 1.0 / (1 << 53) // Float64 draws are multiples of 2⁻⁵³
		lo := math.Floor((ch.cut-1e-12)/ulp) * ulp
		empty := 0
		for u := lo; u <= ch.cut+1e-12; u += ulp {
			got, want := rng.New(23), rng.New(23)
			g, wt := ch.from(got, u), plainGaps(want, ch.logq, u)
			if g != wt || *got != *want {
				t.Fatalf("p=%g first draw %.17g (cut %.17g): mask %#x, plain sampler %#x, same draws %v",
					p, u, ch.cut, g, wt, *got == *want)
			}
			if u >= ch.cut {
				empty++
			}
		}
		if empty == 0 {
			t.Fatalf("p=%g: no draw near the cut took the cut path", p)
		}
	}
}

// TestChannelTinyProbabilityEmptyWord: far below p = 1e-17 the gap
// quotient of a first draw under the cut can exceed the int range (at
// p = 1e-30 and u = 5e-10 it is 5e20). The first success still lies far
// past the word, so the word must come back empty.
func TestChannelTinyProbabilityEmptyWord(t *testing.T) {
	for _, p := range []float64{1e-30, 1e-25} {
		ch := newChannel(p)
		for _, u := range []float64{5e-10, math.Nextafter(ch.cut, 0), 1e-15} {
			if u >= ch.cut {
				t.Fatalf("p=%g: first draw %g not below the cut %g", p, u, ch.cut)
			}
			if m := ch.from(rng.New(29), u); m != 0 {
				t.Errorf("p=%g first draw %g: mask %#x, want an empty word", p, u, m)
			}
		}
	}
}

// FuzzChannelMatchesPlainSampler: for any probability and seed, the
// channel's masks and draws match the plain sampler's over 256 words.
// Probabilities in (0, 1e-17) are skipped: there the plain sampler's gap
// quotient, up to 36.8/p, overflows int.
func FuzzChannelMatchesPlainSampler(f *testing.F) {
	for i, p := range cutProbabilities {
		f.Add(p, uint64(i))
	}
	f.Add(0.0, uint64(1))
	f.Add(0.1, uint64(2))
	f.Add(0.5, uint64(3))
	f.Add(1.0, uint64(4))
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		if p > 0 && p < 1e-17 {
			t.Skip("plain sampler overflows int below p = 1e-17")
		}
		compareWords(t, p, seed, 256)
	})
}
