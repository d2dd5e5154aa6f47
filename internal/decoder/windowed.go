package decoder

import "fmt"

// Windowed is a sliding-window union-find decoder for round-layered graphs.
// Syndrome rounds are ingested incrementally; whenever the active window
// holds Window() rounds, the decoder decodes the window, commits the
// correction edges touching the oldest round, and slides the window forward
// by one round. Flush decodes whatever remains and returns the accumulated
// observable mask. Decode runs one whole shot through that sequence, so a
// Windowed is a Decoder like UnionFind and Greedy.
//
// Commit semantics: after decoding window [lo, hi), the commit boundary is
// lo+1. A correction edge with MinRound == lo (its span starts in the
// sliding-out round; the in-window filter guarantees MinRound >= lo) is
// committed — its observable mask is applied and the pending defect bit at
// each real endpoint is toggled. For a time-like artifact edge crossing the
// commit boundary (MinRound == lo, MaxRound == lo+1) that toggle lands on
// the future-side endpoint, leaving the residual syndrome the next window
// must explain. Edges entirely beyond the boundary (MinRound > lo) are
// tentative and discarded: those rounds are re-decoded with one more round
// of future context in the next window.
//
// Every correction edge incident to a round-lo defect has MinRound == lo,
// so committed edges fully resolve the sliding-out round; a defect the
// grower could not connect anywhere (which whole-shot decoding also cannot
// correct) is dropped when its round slides out.
//
// Resident state is O(detectors) for the pending-bit array plus the shared
// union-find scratch — independent of how many rounds a stream carries.
type Windowed struct {
	g  *Graph
	uf *UnionFind
	w  int

	lo, hi   int // active window: rounds [lo, hi) ingested and not committed
	pending  []bool
	obs      uint64
	syndrome []int
	chosen   []int
}

// NewWindowed returns a windowed decoder over g with the given window size
// in rounds. The graph must carry round structure. A window of 1 is legal
// but degenerate — time-like edges never fit inside it — so callers wanting
// matching across rounds need window >= 2; accuracy close to whole-shot
// needs window >= 3 (see the ablate-window experiment).
func NewWindowed(g *Graph, window int) (*Windowed, error) {
	if g.NumRounds == 0 {
		return nil, fmt.Errorf("decoder: windowed decoding needs a round-layered graph")
	}
	if window < 1 {
		return nil, fmt.Errorf("decoder: window %d < 1", window)
	}
	return &Windowed{
		g:       g,
		uf:      NewUnionFind(g),
		w:       window,
		pending: make([]bool, g.NumDetectors),
	}, nil
}

// Window returns the window size in rounds.
func (d *Windowed) Window() int { return d.w }

// Rounds returns the number of rounds ingested so far.
func (d *Windowed) Rounds() int { return d.hi }

// Reset prepares the decoder for a new shot.
func (d *Windowed) Reset() {
	for i := range d.pending {
		d.pending[i] = false
	}
	d.lo, d.hi, d.obs = 0, 0, 0
}

// IngestRound feeds the fired detectors of the next round (round index
// Rounds()). Every index must belong to that round; on an error the
// decoder's state is unchanged. If the window is full the oldest round is
// decoded and committed first, so each call does at most one window decode.
func (d *Windowed) IngestRound(fired []int) error {
	if d.hi >= d.g.NumRounds {
		return fmt.Errorf("decoder: round %d beyond circuit rounds %d", d.hi, d.g.NumRounds)
	}
	for _, f := range fired {
		if f < 0 || f >= d.g.NumDetectors || d.g.NodeRound[f] != d.hi {
			return fmt.Errorf("decoder: detector %d not in round %d", f, d.hi)
		}
	}
	d.ingest(fired)
	return nil
}

// ingest is IngestRound without the round checks.
func (d *Windowed) ingest(fired []int) {
	if d.hi-d.lo == d.w {
		d.decodeAndSlide()
	}
	for _, f := range fired {
		d.pending[f] = !d.pending[f]
	}
	d.hi++
}

// Decode implements Decoder: it decodes one whole shot through the sliding
// window. The sorted syndrome is split into rounds in one linear walk
// (detector order agrees with round order by the dem round-map contract),
// each round is ingested in turn, and the shot is flushed. The walk stops
// at the first detector out of round order, so the syndrome must be sorted
// as for every Decoder.
func (d *Windowed) Decode(syndrome []int) uint64 {
	d.Reset()
	i := 0
	for r := 0; r < d.g.NumRounds; r++ {
		j := i
		for j < len(syndrome) && d.g.NodeRound[syndrome[j]] == r {
			j++
		}
		d.ingest(syndrome[i:j])
		i = j
	}
	return d.Flush()
}

// Flush decodes the remaining window, commits everything, and returns the
// shot's accumulated observable mask. The decoder is left ready for Reset.
func (d *Windowed) Flush() uint64 {
	syn := d.gather()
	if len(syn) > 0 {
		_, chosen := d.uf.DecodeWindow(syn, d.lo, d.hi, d.chosen[:0])
		d.chosen = chosen
		for _, ei := range chosen {
			d.obs ^= d.g.Edges[ei].ObsMask
		}
	}
	d.lo = d.hi
	return d.obs
}

// gather collects the pending defects of rounds [lo, hi) in ascending
// detector order (round layers are index-sorted and rounds are monotone in
// detector index, so concatenating layers preserves sortedness).
func (d *Windowed) gather() []int {
	syn := d.syndrome[:0]
	for r := d.lo; r < d.hi; r++ {
		for _, n := range d.g.RoundNodes[r] {
			if d.pending[n] {
				syn = append(syn, n)
			}
		}
	}
	d.syndrome = syn
	return syn
}

func (d *Windowed) decodeAndSlide() {
	syn := d.gather()
	if len(syn) > 0 {
		_, chosen := d.uf.DecodeWindow(syn, d.lo, d.hi, d.chosen[:0])
		d.chosen = chosen
		for _, ei := range chosen {
			e := &d.g.Edges[ei]
			if e.MinRound > d.lo {
				continue // tentative: re-decoded with more context next window
			}
			d.obs ^= e.ObsMask
			d.pending[e.U] = !d.pending[e.U]
			if e.V != d.g.Boundary {
				d.pending[e.V] = !d.pending[e.V]
			}
		}
	}
	// Defects the grower could not discharge (disconnected within this
	// window) die with their round, mirroring whole-shot behaviour for
	// unmatchable defects.
	for _, n := range d.g.RoundNodes[d.lo] {
		d.pending[n] = false
	}
	d.lo++
}
