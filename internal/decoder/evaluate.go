package decoder

import (
	"caliqec/internal/rng"
	"fmt"
	"math"
)

// Result summarizes a Monte-Carlo logical-error-rate measurement.
//
// The measurement loop itself lives in internal/mc: the Engine there owns
// sampling, decoding, caching and cancellation, and reports its counts
// through this type (via Summarize). This package only defines the
// decoders and the decoding graph.
type Result struct {
	Shots       int
	Failures    int     // shots where the predicted observable mask missed the sampled one
	LER         float64 // Failures / Shots (per run of the sampled circuit)
	WilsonLo    float64 // 95% Wilson interval on LER
	WilsonHi    float64
	Rounds      int     // QEC rounds the circuit contained (caller-provided)
	PerRoundLER float64 // LER converted to a per-round rate (if Rounds > 0)
}

func (r Result) String() string {
	return fmt.Sprintf("shots=%d failures=%d LER=%.3g [%.3g, %.3g]",
		r.Shots, r.Failures, r.LER, r.WilsonLo, r.WilsonHi)
}

// DecoderKind selects a decoder family.
type DecoderKind int

// Available decoders.
const (
	KindUnionFind DecoderKind = iota
	KindGreedy
)

// New builds a decoder of the given kind over g.
func New(kind DecoderKind, g *Graph) Decoder {
	switch kind {
	case KindGreedy:
		return NewGreedy(g)
	default:
		return NewUnionFind(g)
	}
}

// Summarize converts raw shot/failure counts into a Result.
func Summarize(shots, failures, rounds int) Result {
	res := Result{Shots: shots, Failures: failures, Rounds: rounds}
	if shots > 0 {
		res.LER = float64(failures) / float64(shots)
		res.WilsonLo, res.WilsonHi = rng.WilsonInterval(int64(failures), int64(shots), 1.96)
	}
	if rounds > 0 && res.LER < 1 {
		// Per-round rate from total failure probability:
		// P_total = 1 - (1 - p_round)^rounds.
		res.PerRoundLER = 1 - math.Pow(1-res.LER, 1/float64(rounds))
	}
	return res
}
