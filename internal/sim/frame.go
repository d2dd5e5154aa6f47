// Package sim implements Monte-Carlo sampling of stabilizer circuits.
//
// The workhorse is a batched Pauli-frame simulator: instead of tracking
// quantum state, it tracks — for each of many shots in parallel — the Pauli
// difference ("frame") between the noisy execution and the noiseless
// reference execution. For circuits whose measurements are all determined
// by stabilizer propagation (true of every syndrome-extraction circuit this
// repository generates), the frame fully determines which measurement
// outcomes flip relative to the noiseless run, hence all detector and
// observable values. This is the same strategy Stim uses for its sampling
// fast path.
//
// Shots are packed 64 per machine word and LaneWords words per Lane, so one
// pass over the circuit advances LaneShots (256) Monte-Carlo trajectories.
// The circuit is compiled once, at construction, into two flat closure
// lists: a draw program that consumes randomness one 64-shot word at a time
// (run word-major, so the RNG stream is bit-identical to the old 64-wide
// simulator's batch-sequential order), and an apply program whose steps
// each advance a whole lane. Ticks and zero-probability noise compile to
// nothing, per-instruction constants (measurement offsets, log(1-p), the
// first-gap cut) are resolved at compile time, and per-instruction
// dispatch overhead amortizes over 4× more shots than the single-word
// version.
package sim

import (
	"caliqec/internal/circuit"
	"caliqec/internal/rng"
	"math"
	"math/bits"
)

// Shot-lane geometry. Within a batch, shot s lives at bit s%64 of word
// s/64 — the same mapping chunks use, so consumers walk set bits with
// bits.TrailingZeros64 per word exactly as they did when batches were one
// word wide.
const (
	// LaneWords is the number of 64-shot words advanced per pass.
	LaneWords = 4
	// LaneShots is the number of shots per batch (bits per Lane).
	LaneShots = 64 * LaneWords
)

// Lane holds one bit per shot of a batch for a single detector, observable,
// or frame component.
type Lane [LaneWords]uint64

// FrameSimulator samples detector and observable flip bits for batches of
// shots of a fixed circuit. It is not safe for concurrent use; internal/mc
// pools one instance per worker. Reset rebinds a simulator to a new
// randomness stream so pooled instances can be reused across chunks without
// reallocating frame or scratch storage.
type FrameSimulator struct {
	c   *circuit.Circuit
	rng *rng.RNG

	// draws is the compiled noise program: one entry per randomness-consuming
	// instruction, in circuit order. Each call draws the instruction's masks
	// for a single 64-shot word w into the noise buffer. runBatch runs the
	// draw program once per active word (word-major), reproducing exactly the
	// randomness order of a 64-shot-per-pass simulator running the batch's
	// words as consecutive batches.
	draws []drawStep

	// prog is the compiled apply program: one step per state-affecting
	// instruction, in circuit order, each advancing a full lane. Ticks and
	// zero-probability pure-noise instructions compile to nothing (they
	// neither touch frames nor consume randomness), so skipping them
	// preserves the RNG stream bit-for-bit.
	prog []step

	// noise holds the masks drawn for the current batch, one Lane per
	// compile-time-assigned slot. Words ≥ the batch's active word count keep
	// stale bits; they only feed shot columns that are masked away.
	noise []Lane

	// Per-qubit frame bits for the current batch.
	xf []Lane // X component of the frame (flips Z-basis measurements)
	zf []Lane // Z component of the frame (flips X-basis measurements)

	// Measurement-record flip bits for the current batch.
	recs []Lane

	// Detector/observable lanes for the current batch, reused across
	// batches and across Sample calls (previously allocated per call).
	det []Lane
	obs []Lane
}

// step advances one compiled instruction on the current batch's lanes.
type step func(fs *FrameSimulator)

// drawStep draws one instruction's noise masks for 64-shot word w.
type drawStep func(fs *FrameSimulator, w int)

// NewFrameSimulator returns a simulator for c drawing randomness from r.
func NewFrameSimulator(c *circuit.Circuit, r *rng.RNG) *FrameSimulator {
	fs := &FrameSimulator{
		c: c, rng: r,
		xf:   make([]Lane, c.NumQubits),
		zf:   make([]Lane, c.NumQubits),
		recs: make([]Lane, c.NumMeas),
		det:  make([]Lane, c.NumDetectors),
		obs:  make([]Lane, c.NumObs),
	}
	var slots int
	fs.draws, fs.prog, slots = compile(c)
	fs.noise = make([]Lane, slots)
	return fs
}

// Circuit returns the circuit this simulator was compiled for. Pool
// implementations use it to match a free simulator to a request.
func (fs *FrameSimulator) Circuit() *circuit.Circuit { return fs.c }

// Reset rebinds the simulator to a new randomness stream. The compiled
// program and all scratch storage are retained; the next Sample call draws
// from r exactly as a freshly constructed simulator would.
func (fs *FrameSimulator) Reset(r *rng.RNG) { fs.rng = r }

// BatchResult holds detector and observable flips for one batch of up to
// LaneShots shots: one Lane per detector/observable, with shot s at bit
// s%64 of word s/64. Words at or beyond Words() are zero.
type BatchResult struct {
	Detectors   []Lane
	Observables []Lane
	Shots       int // number of valid shots (≤ LaneShots)
}

// Words returns the number of lane words carrying valid shots: the final
// partial batch of a run may fill fewer than LaneWords words, and consumers
// iterating words should stop there.
func (b BatchResult) Words() int { return (b.Shots + 63) / 64 }

// geomThreshold is the error probability below which bernoulli draws use
// geometric skipping (O(p·64) draws per word instead of 64).
const geomThreshold = 0.1

// cutGuard widens the first-gap cut (see channel). Below p = geomThreshold
// it keeps the true first gap of every uniform at or above the cut at
// least 64 + 9e-9, while the float64 quotient that computes the gap is off
// by less than 1e-13.
const cutGuard = 1e-9

// channel is one noise probability with the constants its draws need,
// resolved at compile time. Hoisting them there removes a math.Log1p from
// every noisy instruction of every batch.
type channel struct {
	p float64
	// geom is set for p in (0, geomThreshold): draws use geometric
	// skipping, with logq = log(1-p) and the first-gap cut.
	geom bool
	logq float64
	// cut is 1-(1-p)^64 plus cutGuard: a first uniform u at or above it
	// puts the first success at gap floor(log(1-u)/log(1-p)) ≥ 64, past
	// the word, so the word is empty without computing the gap.
	cut float64
}

// newChannel returns the channel for probability p.
func newChannel(p float64) channel {
	if p > 0 && p < geomThreshold {
		logq := math.Log1p(-p)
		return channel{p: p, geom: true, logq: logq, cut: -math.Expm1(64*logq) + cutGuard}
	}
	return channel{p: p}
}

// mask returns a 64-bit word whose bits are independently 1 with
// probability p. For small p it uses geometric skipping (draw the gap to
// the next success), which costs O(p·64) random draws instead of 64; at
// p = 1e-3 about 94% of words are empty and cost one draw and no log.
func (ch *channel) mask(r *rng.RNG) uint64 {
	if !ch.geom {
		return denseMask(r, ch.p)
	}
	return ch.from(r, r.Float64())
}

// from is the geometric-skipping path of mask, given the word's first
// uniform draw u. It consumes the same draws and returns the same mask as
// computing every gap, the first one included, from log(1-u)/log(1-p):
// every first u at or above ch.cut has its first gap at or past the end of
// the word, so that word is empty either way.
func (ch *channel) from(r *rng.RNG, u float64) uint64 {
	if u >= ch.cut {
		return 0
	}
	return ch.gaps(r, u)
}

// gaps places the successes of one word by geometric skipping, starting
// from the first uniform draw u.
func (ch *channel) gaps(r *rng.RNG, u float64) uint64 {
	var mask uint64
	i := 0
	for {
		// Gap ~ floor(log(1-u)/log(1-p)); u in [0,1) keeps log finite. The
		// quotient is compared with the bits left before it becomes an int:
		// for tiny p it can exceed the int range.
		gap := math.Log1p(-u) / ch.logq
		if gap >= float64(64-i) {
			return mask
		}
		i += int(gap)
		mask |= 1 << uint(i)
		i++
		u = r.Float64()
	}
}

// denseMask draws one uniform per bit: the path for p at or above
// geomThreshold. p ≤ 0 and p ≥ 1 draw nothing.
func denseMask(r *rng.RNG, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	var mask uint64
	for i := 0; i < 64; i++ {
		if r.Float64() < p {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// compile lowers c's instruction list into a draw program and an apply
// program. Each apply step captures its targets and — for measurements —
// the absolute measurement-record base index; each draw step captures its
// channel (probability, log(1-p) and first-gap cut) and the noise-buffer
// slot range it fills. slots is the total noise-buffer size in Lanes.
//
// RNG-stream compatibility: for one 64-shot word the draw program consumes
// randomness in exactly the order and quantity the single-word simulator's
// fused steps did. The only instructions elided are ticks and pure-noise
// channels with Arg ≤ 0, neither of which consumes randomness, and noiseless
// resets/measurements compile to draw-free apply steps (an Arg ≤ 0 bernoulli
// draw consumed nothing either), so compiled wide and narrow execution are
// bit-identical for the same seed.
func compile(c *circuit.Circuit) (draws []drawStep, prog []step, slots int) {
	prog = make([]step, 0, len(c.Instructions))
	meas := 0
	for _, in := range c.Instructions {
		targets := in.Targets
		arg := in.Arg
		ch := newChannel(arg)
		index := in.Index
		recsIdx := in.Recs
		switch in.Op {
		case circuit.OpH:
			prog = append(prog, func(fs *FrameSimulator) {
				for _, q := range targets {
					fs.xf[q], fs.zf[q] = fs.zf[q], fs.xf[q]
				}
			})
		case circuit.OpS:
			// S maps X -> Y: an X frame gains a Z component.
			prog = append(prog, func(fs *FrameSimulator) {
				for _, q := range targets {
					x, z := &fs.xf[q], &fs.zf[q]
					for w := 0; w < LaneWords; w++ {
						z[w] ^= x[w]
					}
				}
			})
		case circuit.OpCX:
			prog = append(prog, func(fs *FrameSimulator) {
				for i := 0; i < len(targets); i += 2 {
					c, t := targets[i], targets[i+1]
					xc, xt := &fs.xf[c], &fs.xf[t]
					zc, zt := &fs.zf[c], &fs.zf[t]
					for w := 0; w < LaneWords; w++ {
						xt[w] ^= xc[w] // X on control propagates to target
						zc[w] ^= zt[w] // Z on target propagates to control
					}
				}
			})
		case circuit.OpCZ:
			prog = append(prog, func(fs *FrameSimulator) {
				for i := 0; i < len(targets); i += 2 {
					a, b := targets[i], targets[i+1]
					xa, xb := &fs.xf[a], &fs.xf[b]
					za, zb := &fs.zf[a], &fs.zf[b]
					for w := 0; w < LaneWords; w++ {
						za[w] ^= xb[w]
						zb[w] ^= xa[w]
					}
				}
			})
		case circuit.OpSwap:
			prog = append(prog, func(fs *FrameSimulator) {
				for i := 0; i < len(targets); i += 2 {
					a, b := targets[i], targets[i+1]
					fs.xf[a], fs.xf[b] = fs.xf[b], fs.xf[a]
					fs.zf[a], fs.zf[b] = fs.zf[b], fs.zf[a]
				}
			})
		case circuit.OpReset:
			// Reset discards the frame; a noisy reset leaves an X error
			// (wrong computational-basis state) with probability Arg.
			if arg <= 0 {
				prog = append(prog, func(fs *FrameSimulator) {
					for _, q := range targets {
						fs.xf[q] = Lane{}
						fs.zf[q] = Lane{}
					}
				})
				continue
			}
			base := slots
			slots += len(targets)
			draws = append(draws, maskDraw(base, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					fs.xf[q] = fs.noise[base+j]
					fs.zf[q] = Lane{}
				}
			})
		case circuit.OpResetX:
			if arg <= 0 {
				prog = append(prog, func(fs *FrameSimulator) {
					for _, q := range targets {
						fs.xf[q] = Lane{}
						fs.zf[q] = Lane{}
					}
				})
				continue
			}
			base := slots
			slots += len(targets)
			draws = append(draws, maskDraw(base, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					fs.zf[q] = fs.noise[base+j]
					fs.xf[q] = Lane{}
				}
			})
		case circuit.OpM:
			// An X or Y frame flips a Z-basis outcome; readout error adds an
			// independent classical flip. The post-measurement Z frame is a
			// stabilizer of the collapsed state, so it is cleared.
			base := meas
			meas += len(targets)
			if arg <= 0 {
				prog = append(prog, func(fs *FrameSimulator) {
					for j, q := range targets {
						fs.recs[base+j] = fs.xf[q]
						fs.zf[q] = Lane{}
					}
				})
				continue
			}
			nbase := slots
			slots += len(targets)
			draws = append(draws, maskDraw(nbase, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					r, x, m := &fs.recs[base+j], &fs.xf[q], &fs.noise[nbase+j]
					for w := 0; w < LaneWords; w++ {
						r[w] = x[w] ^ m[w]
					}
					fs.zf[q] = Lane{}
				}
			})
		case circuit.OpMX:
			base := meas
			meas += len(targets)
			if arg <= 0 {
				prog = append(prog, func(fs *FrameSimulator) {
					for j, q := range targets {
						fs.recs[base+j] = fs.zf[q]
						fs.xf[q] = Lane{}
					}
				})
				continue
			}
			nbase := slots
			slots += len(targets)
			draws = append(draws, maskDraw(nbase, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					r, z, m := &fs.recs[base+j], &fs.zf[q], &fs.noise[nbase+j]
					for w := 0; w < LaneWords; w++ {
						r[w] = z[w] ^ m[w]
					}
					fs.xf[q] = Lane{}
				}
			})
		case circuit.OpXError:
			if arg <= 0 {
				continue // draws nothing and flips nothing
			}
			base := slots
			slots += len(targets)
			draws = append(draws, maskDraw(base, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					x, m := &fs.xf[q], &fs.noise[base+j]
					for w := 0; w < LaneWords; w++ {
						x[w] ^= m[w]
					}
				}
			})
		case circuit.OpZError:
			if arg <= 0 {
				continue
			}
			base := slots
			slots += len(targets)
			draws = append(draws, maskDraw(base, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					z, m := &fs.zf[q], &fs.noise[base+j]
					for w := 0; w < LaneWords; w++ {
						z[w] ^= m[w]
					}
				}
			})
		case circuit.OpYError:
			if arg <= 0 {
				continue
			}
			base := slots
			slots += len(targets)
			draws = append(draws, maskDraw(base, len(targets), ch))
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					x, z, m := &fs.xf[q], &fs.zf[q], &fs.noise[base+j]
					for w := 0; w < LaneWords; w++ {
						x[w] ^= m[w]
						z[w] ^= m[w]
					}
				}
			})
		case circuit.OpDepolarize1:
			if arg <= 0 {
				continue
			}
			base := slots
			slots += 2 * len(targets) // X mask + Z mask per target
			draws = append(draws, func(fs *FrameSimulator, w int) {
				for j := range targets {
					m := ch.mask(fs.rng)
					// For each erring shot choose X, Y or Z uniformly.
					var xm, zm uint64
					for v := m; v != 0; v &= v - 1 {
						bit := v & -v
						switch fs.rng.Intn(3) {
						case 0:
							xm ^= bit
						case 1:
							xm ^= bit
							zm ^= bit
						case 2:
							zm ^= bit
						}
					}
					fs.noise[base+2*j][w] = xm
					fs.noise[base+2*j+1][w] = zm
				}
			})
			prog = append(prog, func(fs *FrameSimulator) {
				for j, q := range targets {
					x, z := &fs.xf[q], &fs.zf[q]
					xm, zm := &fs.noise[base+2*j], &fs.noise[base+2*j+1]
					for w := 0; w < LaneWords; w++ {
						x[w] ^= xm[w]
						z[w] ^= zm[w]
					}
				}
			})
		case circuit.OpDepolarize2:
			if arg <= 0 {
				continue
			}
			base := slots
			slots += 2 * len(targets) // X+Z masks for both qubits per pair
			draws = append(draws, func(fs *FrameSimulator, w int) {
				for i := 0; i < len(targets); i += 2 {
					m := ch.mask(fs.rng)
					var xa, za, xb, zb uint64
					for v := m; v != 0; v &= v - 1 {
						bit := v & -v
						// Choose one of the 15 non-identity two-qubit Paulis.
						k := fs.rng.Intn(15) + 1 // 1..15, 2 bits per qubit
						pa, pb := k&3, k>>2
						if pa&2 != 0 {
							xa ^= bit
						}
						if pa&1 != 0 {
							za ^= bit
						}
						if pb&2 != 0 {
							xb ^= bit
						}
						if pb&1 != 0 {
							zb ^= bit
						}
					}
					s := base + 2*i
					fs.noise[s][w] = xa
					fs.noise[s+1][w] = za
					fs.noise[s+2][w] = xb
					fs.noise[s+3][w] = zb
				}
			})
			prog = append(prog, func(fs *FrameSimulator) {
				for i := 0; i < len(targets); i += 2 {
					a, b := targets[i], targets[i+1]
					s := base + 2*i
					xa, za := &fs.xf[a], &fs.zf[a]
					xb, zb := &fs.xf[b], &fs.zf[b]
					ma, mb := &fs.noise[s], &fs.noise[s+1]
					mc, md := &fs.noise[s+2], &fs.noise[s+3]
					for w := 0; w < LaneWords; w++ {
						xa[w] ^= ma[w]
						za[w] ^= mb[w]
						xb[w] ^= mc[w]
						zb[w] ^= md[w]
					}
				}
			})
		case circuit.OpDetector:
			prog = append(prog, func(fs *FrameSimulator) {
				var v Lane
				for _, rIdx := range recsIdx {
					r := &fs.recs[rIdx]
					for w := 0; w < LaneWords; w++ {
						v[w] ^= r[w]
					}
				}
				fs.det[index] = v
			})
		case circuit.OpObservable:
			prog = append(prog, func(fs *FrameSimulator) {
				var v Lane
				for _, rIdx := range recsIdx {
					r := &fs.recs[rIdx]
					for w := 0; w < LaneWords; w++ {
						v[w] ^= r[w]
					}
				}
				o := &fs.obs[index]
				for w := 0; w < LaneWords; w++ {
					o[w] ^= v[w]
				}
			})
		case circuit.OpTick:
			// no state effect, no randomness: compiles to nothing
		}
	}
	return draws, prog, slots
}

// maskDraw returns a draw step filling n consecutive noise slots starting at
// base with plain bernoulli masks — the shared shape of every noise channel
// that needs no per-bit Pauli choice.
func maskDraw(base, n int, ch channel) drawStep {
	return func(fs *FrameSimulator, w int) {
		for j := 0; j < n; j++ {
			fs.noise[base+j][w] = ch.mask(fs.rng)
		}
	}
}

// runBatch executes one pass with the given number of active 64-shot words,
// filling fs.det/fs.obs flip lanes. The draw program runs word-major (all
// instructions for word 0, then word 1, …) so randomness is consumed in the
// same order as running each word as its own 64-shot batch; the apply
// program then advances all LaneWords words per step. Lane words ≥ words
// compute on stale noise bits and hold garbage until the caller masks them.
func (fs *FrameSimulator) runBatch(words int) {
	clear(fs.xf)
	clear(fs.zf)
	clear(fs.recs)
	clear(fs.det)
	clear(fs.obs)
	for w := 0; w < words; w++ {
		for _, d := range fs.draws {
			d(fs, w)
		}
	}
	for _, st := range fs.prog {
		st(fs)
	}
}

// Sample runs shots Monte-Carlo trajectories and invokes visit once per
// batch with the detector and observable flip lanes. The final batch may
// contain fewer than LaneShots valid shots (BatchResult.Shots).
func (fs *FrameSimulator) Sample(shots int, visit func(BatchResult)) {
	fs.SampleWhile(shots, func(b BatchResult) bool {
		visit(b)
		return true
	})
}

// SampleWhile is Sample with early exit: sampling stops as soon as visit
// returns false, leaving the remaining batches undrawn. This is what lets
// internal/mc abort an in-flight evaluation between batches on context
// cancellation without consuming randomness for work it will discard.
//
// A partial final batch draws randomness for exactly ceil(n/64) words — the
// same amount the single-word simulator drew for the same shot count — and
// its detector/observable lanes are masked so bits of shots ≥ n are zero.
//
// The BatchResult lanes alias the simulator's internal scratch: they are
// valid only until the next batch (or the next Sample call) and must not be
// retained by visit.
func (fs *FrameSimulator) SampleWhile(shots int, visit func(BatchResult) bool) {
	for done := 0; done < shots; done += LaneShots {
		n := shots - done
		if n > LaneShots {
			n = LaneShots
		}
		words := (n + 63) / 64
		fs.runBatch(words)
		if n < LaneShots {
			maskTail(fs.det, n)
			maskTail(fs.obs, n)
		}
		if !visit(BatchResult{Detectors: fs.det, Observables: fs.obs, Shots: n}) {
			return
		}
	}
}

// maskTail zeroes the bits of shots ≥ n in every lane: the high bits of the
// last active word plus all words after it. n must be in (0, LaneShots).
func maskTail(lanes []Lane, n int) {
	last := (n - 1) / 64
	low := ^uint64(0)
	if r := uint(n & 63); r != 0 {
		low = uint64(1)<<r - 1
	}
	for i := range lanes {
		l := &lanes[i]
		l[last] &= low
		for w := last + 1; w < LaneWords; w++ {
			l[w] = 0
		}
	}
}

// CountObservableFlips samples shots trajectories with no decoding and
// returns, per observable, the number of shots whose raw observable flipped.
// This measures the *undecoded* physical failure rate and is mostly useful
// for tests; real experiments decode first (see internal/mc.Engine).
func (fs *FrameSimulator) CountObservableFlips(shots int) []int {
	counts := make([]int, fs.c.NumObs)
	fs.Sample(shots, func(b BatchResult) {
		for i := range b.Observables {
			l := &b.Observables[i]
			for w := 0; w < LaneWords; w++ {
				counts[i] += bits.OnesCount64(l[w])
			}
		}
	})
	return counts
}
