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
// Compile lowers a circuit once into an immutable Program: a flat table of
// ops, run by one switch with each op advancing a whole lane, and a table
// of draws that consume randomness one 64-shot word at a time (run
// word-major, so the RNG stream is bit-identical to the old 64-wide
// simulator's batch-sequential order). Ticks and zero-probability noise
// compile to nothing, and per-instruction constants (measurement offsets,
// log(1-p), the first-gap cut) are resolved at compile time. Every op's
// targets or records are copied into one int32 slab the Program owns, so
// a Program keeps no part of its circuit alive. A Program holds no
// per-shot state, so simulators on any number of goroutines can share one.
package sim

import (
	"caliqec/internal/circuit"
	"caliqec/internal/rng"
	"math"
	"math/bits"
	"unsafe"
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

// Program is a circuit compiled for frame sampling. It is immutable once
// Compile returns, so one Program serves any number of simulators on any
// number of goroutines.
type Program struct {
	// ops holds one op per state-affecting instruction, in circuit order,
	// each advancing a full lane. Ticks and zero-probability pure-noise
	// instructions compile to nothing (they neither touch frames nor
	// consume randomness), so skipping them preserves the RNG stream
	// bit-for-bit.
	ops []op

	// draws holds one draw per randomness-consuming instruction, in circuit
	// order. runBatch runs them once per active word (word-major),
	// reproducing exactly the randomness order of a 64-shot-per-pass
	// simulator running the batch's words as consecutive batches.
	draws []draw

	// args holds the ops' qubit targets and detector and observable record
	// indices back to back, in op order; each op's args is its window.
	args []int32

	slots int // noise slots drawn per batch, in Lanes
	width int // most targets of any instruction

	qubits, meas, dets, obs int // the circuit's lane counts
}

// op is one compiled instruction: 40 bytes. Its args window stays a slice
// because re-slicing the slab from offsets on every op measured slower.
type op struct {
	args  []int32 // qubits, or the records of a detector or observable
	index int32   // record base of M/MX; detector or observable index
	// x and z are the first noise slots of the masks that enter the X and
	// Z parts of the frame, one Lane per target, or -1 for none. The
	// readout flips of M sit in x and those of MX in z: the part each
	// measurement reads.
	x, z int32
	code circuit.OpCode
}

// draw fills word w of one instruction's noise slots. A depolarizing
// channel writes n X masks from slot and then n Z masks; every other
// channel writes n bernoulli masks from slot.
type draw struct {
	code circuit.OpCode
	ch   channel
	slot int32
	n    int32 // the instruction's target count
}

// FrameSimulator samples detector and observable flip bits for batches of
// shots of one Program. It owns only its lanes, its noise buffer and its
// RNG, and is not safe for concurrent use; internal/mc pools simulators
// over each cached circuit's Program, one per worker. Reset rebinds a
// simulator to a new randomness stream so pooled instances can be reused
// across chunks without reallocating frame or scratch storage.
type FrameSimulator struct {
	prog *Program
	rng  *rng.RNG

	// noise holds the masks drawn for the current batch, one Lane per
	// compile-time-assigned slot, then width Lanes that stay zero: the
	// masks of a part an op has no noise in. Words ≥ the batch's active
	// word count keep stale bits; they only feed shot columns that are
	// masked away.
	noise []Lane

	// Per-qubit frame bits for the current batch.
	xf []Lane // X component of the frame (flips Z-basis measurements)
	zf []Lane // Z component of the frame (flips X-basis measurements)

	// Measurement-record flip bits for the current batch.
	recs []Lane

	// Detector/observable lanes for the current batch, reused across
	// batches and across Sample calls.
	det []Lane
	obs []Lane
}

// NewFrameSimulator returns a simulator for c drawing randomness from r. It
// compiles c; to sample one circuit with several simulators, Compile it
// once and call NewSimulator on the Program.
func NewFrameSimulator(c *circuit.Circuit, r *rng.RNG) *FrameSimulator {
	return Compile(c).NewSimulator(r)
}

// NewSimulator returns a simulator running p and drawing randomness from r.
func (p *Program) NewSimulator(r *rng.RNG) *FrameSimulator {
	return &FrameSimulator{
		prog: p, rng: r,
		noise: make([]Lane, p.slots+p.width),
		xf:    make([]Lane, p.qubits),
		zf:    make([]Lane, p.qubits),
		recs:  make([]Lane, p.meas),
		det:   make([]Lane, p.dets),
		obs:   make([]Lane, p.obs),
	}
}

// Reset rebinds the simulator to a new randomness stream. The program and
// all scratch storage are retained; the next Sample call draws from r
// exactly as a freshly constructed simulator would.
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

// Compile lowers c's instruction list into a Program. Each op copies its
// instruction's targets (a detector's or observable's records) into the
// Program's slab and keeps — for measurements — the absolute
// measurement-record base; each draw keeps its channel (probability,
// log(1-p) and first-gap cut) and the noise slots it fills. The tables and
// the slab are sized exactly before they are filled, so compiling
// allocates the same four objects for a circuit of any length. Indices are
// kept as int32: 2^31 qubits, records or noise slots would take 64 GiB of
// lanes per simulator.
//
// RNG-stream compatibility: for one 64-shot word the draws consume
// randomness in exactly the order and quantity the single-word simulator's
// fused steps did. The only instructions elided are ticks and pure-noise
// channels with Arg ≤ 0, neither of which consumes randomness, and
// noiseless resets/measurements compile to ops without noise slots (an
// Arg ≤ 0 bernoulli draw consumed nothing either), so compiled wide and
// narrow execution are bit-identical for the same seed.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{qubits: c.NumQubits, meas: c.NumMeas, dets: c.NumDetectors, obs: c.NumObs}
	ops, draws, args := 0, 0, 0
	for i := range c.Instructions {
		in := &c.Instructions[i]
		if elided(in) {
			continue
		}
		ops++
		args += len(argsOf(in))
		if drawsNoise(in) {
			draws++
		}
	}
	p.ops = make([]op, 0, ops)
	p.draws = make([]draw, 0, draws)
	p.args = make([]int32, 0, args)
	meas := 0
	for i := range c.Instructions {
		in := &c.Instructions[i]
		p.width = max(p.width, len(in.Targets))
		if elided(in) {
			continue
		}
		start := len(p.args)
		for _, a := range argsOf(in) {
			p.args = append(p.args, int32(a))
		}
		o := op{code: in.Op, args: p.args[start:len(p.args):len(p.args)], index: int32(in.Index), x: -1, z: -1}
		if in.Op == circuit.OpM || in.Op == circuit.OpMX {
			o.index = int32(meas)
			meas += len(in.Targets)
		}
		if drawsNoise(in) {
			o.x, o.z = p.addDraw(in)
		}
		p.ops = append(p.ops, o)
	}
	return p
}

// elided reports whether in compiles to nothing: a tick, or a pure-noise
// channel whose Arg is ≤ 0. Neither touches frames or draws randomness.
func elided(in *circuit.Instruction) bool {
	switch in.Op {
	case circuit.OpTick:
		return true
	case circuit.OpXError, circuit.OpYError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2:
		return in.Arg <= 0
	}
	return false
}

// argsOf returns the indices in's op reads: the records of a detector or
// observable, the qubit targets of anything else.
func argsOf(in *circuit.Instruction) []int {
	if in.Op == circuit.OpDetector || in.Op == circuit.OpObservable {
		return in.Recs
	}
	return in.Targets
}

// Bytes returns the bytes p retains: its header, op and draw tables and
// slab, counted from their capacities.
func (p *Program) Bytes() int {
	return int(unsafe.Sizeof(*p)) +
		cap(p.ops)*int(unsafe.Sizeof(op{})) +
		cap(p.draws)*int(unsafe.Sizeof(draw{})) +
		cap(p.args)*int(unsafe.Sizeof(int32(0)))
}

// drawsNoise reports whether in consumes randomness: a reset, measurement
// or noise channel whose Arg is not ≤ 0.
func drawsNoise(in *circuit.Instruction) bool {
	switch in.Op {
	case circuit.OpReset, circuit.OpResetX, circuit.OpM, circuit.OpMX,
		circuit.OpXError, circuit.OpYError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2:
		return !(in.Arg <= 0)
	}
	return false
}

// addDraw appends in's draw, assigns its noise slots and returns the op's
// X and Z slots.
func (p *Program) addDraw(in *circuit.Instruction) (x, z int32) {
	n := int32(len(in.Targets))
	slot := int32(p.slots)
	p.draws = append(p.draws, draw{code: in.Op, ch: newChannel(in.Arg), slot: slot, n: n})
	p.slots += int(n)
	switch in.Op {
	case circuit.OpResetX, circuit.OpMX, circuit.OpZError:
		return -1, slot
	case circuit.OpYError:
		return slot, slot
	case circuit.OpDepolarize1, circuit.OpDepolarize2:
		p.slots += int(n)
		return slot, slot + n
	}
	return slot, -1 // R, M, X_ERROR
}

// drawWord runs the draws for 64-shot word w, writing word w of every
// noise slot.
func (fs *FrameSimulator) drawWord(w int) {
	r, noise := fs.rng, fs.noise
	for i := range fs.prog.draws {
		d := &fs.prog.draws[i]
		x := noise[d.slot : d.slot+d.n]
		switch d.code {
		case circuit.OpDepolarize1:
			z := noise[d.slot+d.n : d.slot+2*d.n]
			for j := range x {
				m := d.ch.mask(r)
				// For each erring shot choose X, Y or Z uniformly.
				var xm, zm uint64
				for v := m; v != 0; v &= v - 1 {
					bit := v & -v
					switch r.Intn(3) {
					case 0:
						xm ^= bit
					case 1:
						xm ^= bit
						zm ^= bit
					case 2:
						zm ^= bit
					}
				}
				x[j][w], z[j][w] = xm, zm
			}
		case circuit.OpDepolarize2:
			z := noise[d.slot+d.n : d.slot+2*d.n]
			for j := 0; j < len(x); j += 2 {
				m := d.ch.mask(r)
				var xa, za, xb, zb uint64
				for v := m; v != 0; v &= v - 1 {
					bit := v & -v
					// Choose one of the 15 non-identity two-qubit Paulis.
					k := r.Intn(15) + 1 // 1..15, 2 bits per qubit
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
				x[j][w], z[j][w] = xa, za
				x[j+1][w], z[j+1][w] = xb, zb
			}
		default:
			for j := range x {
				x[j][w] = d.ch.mask(r)
			}
		}
	}
}

// apply advances the current batch's lanes through the ops.
func (fs *FrameSimulator) apply() {
	xf, zf := fs.xf, fs.zf
	for i := range fs.prog.ops {
		o := &fs.prog.ops[i]
		switch o.code {
		case circuit.OpH:
			for _, q := range o.args {
				xf[q], zf[q] = zf[q], xf[q]
			}
		case circuit.OpS:
			// S maps X -> Y: an X frame gains a Z component.
			for _, q := range o.args {
				xorLane(&zf[q], &xf[q])
			}
		case circuit.OpCX:
			for j := 0; j < len(o.args); j += 2 {
				c, t := o.args[j], o.args[j+1]
				xc, xt, zc, zt := &xf[c], &xf[t], &zf[c], &zf[t]
				for w := 0; w < LaneWords; w++ {
					xt[w] ^= xc[w] // X on control propagates to target
					zc[w] ^= zt[w] // Z on target propagates to control
				}
			}
		case circuit.OpCZ:
			for j := 0; j < len(o.args); j += 2 {
				a, b := o.args[j], o.args[j+1]
				xa, xb, za, zb := &xf[a], &xf[b], &zf[a], &zf[b]
				for w := 0; w < LaneWords; w++ {
					za[w] ^= xb[w]
					zb[w] ^= xa[w]
				}
			}
		case circuit.OpSwap:
			for j := 0; j < len(o.args); j += 2 {
				a, b := o.args[j], o.args[j+1]
				xf[a], xf[b] = xf[b], xf[a]
				zf[a], zf[b] = zf[b], zf[a]
			}
		case circuit.OpReset, circuit.OpResetX:
			// Reset discards the frame; a noisy reset leaves an error in the
			// part its basis flips (X after |0>, Z after |+>).
			own, other, m := fs.basis(o)
			for j, q := range o.args {
				own[q], other[q] = m[j], Lane{}
			}
		case circuit.OpM, circuit.OpMX:
			// An error in the part a measurement reads (X for M, Z for MX)
			// flips its outcome; readout error adds an independent classical
			// flip. The other part is a stabilizer of the collapsed state, so
			// it is cleared.
			own, other, m := fs.basis(o)
			recs := fs.recs[o.index:]
			for j, q := range o.args {
				r, f, e := &recs[j], &own[q], &m[j]
				for w := 0; w < LaneWords; w++ {
					r[w] = f[w] ^ e[w]
				}
				other[q] = Lane{}
			}
		case circuit.OpXError, circuit.OpYError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2:
			mx, mz := fs.masks(o.x), fs.masks(o.z)
			for j, q := range o.args {
				x, z, ex, ez := &xf[q], &zf[q], &mx[j], &mz[j]
				for w := 0; w < LaneWords; w++ {
					x[w] ^= ex[w]
					z[w] ^= ez[w]
				}
			}
		case circuit.OpDetector:
			fs.det[o.index] = fs.parity(o.args)
		case circuit.OpObservable:
			v := fs.parity(o.args)
			xorLane(&fs.obs[o.index], &v)
		}
	}
}

// basis returns the frame part a reset or measurement acts on (X in the Z
// basis of R and M, Z in the X basis of RX and MX), the other part, and the
// op's noise masks for the first.
func (fs *FrameSimulator) basis(o *op) (own, other, masks []Lane) {
	if o.code == circuit.OpResetX || o.code == circuit.OpMX {
		return fs.zf, fs.xf, fs.masks(o.z)
	}
	return fs.xf, fs.zf, fs.masks(o.x)
}

// masks returns the noise lanes from slot on, or lanes that stay zero for
// a slot of -1, so an op XORs nothing into a part it has no noise in.
func (fs *FrameSimulator) masks(slot int32) []Lane {
	if slot < 0 {
		return fs.noise[fs.prog.slots:]
	}
	return fs.noise[slot:]
}

// xorLane XORs src into dst.
func xorLane(dst, src *Lane) {
	for w := 0; w < LaneWords; w++ {
		dst[w] ^= src[w]
	}
}

// parity returns the XOR of the record lanes at idx.
func (fs *FrameSimulator) parity(idx []int32) Lane {
	var v Lane
	for _, i := range idx {
		xorLane(&v, &fs.recs[i])
	}
	return v
}

// runBatch executes one pass with the given number of active 64-shot words,
// filling fs.det/fs.obs flip lanes. The draws run word-major (all
// instructions for word 0, then word 1, …) so randomness is consumed in the
// same order as running each word as its own 64-shot batch; the ops then
// advance all LaneWords words at once. Lane words ≥ words compute on stale
// noise bits and hold garbage until the caller masks them.
func (fs *FrameSimulator) runBatch(words int) {
	clear(fs.xf)
	clear(fs.zf)
	clear(fs.recs)
	clear(fs.det)
	clear(fs.obs)
	for w := 0; w < words; w++ {
		fs.drawWord(w)
	}
	fs.apply()
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
	counts := make([]int, len(fs.obs))
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
