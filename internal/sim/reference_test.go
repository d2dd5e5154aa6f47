package sim

// The frame sampler's op table as it was while ops shared their targets
// and records with the circuit: each op held an opcode, the instruction's
// Targets and Recs slices and three ints. It is kept only as the oracle
// that FuzzProgramMatchesReference compares Program against; the code
// below is unchanged apart from the type, constructor and method names.
// Lanes, channels and the tail mask are shared with the package.

import (
	"caliqec/internal/circuit"
	"caliqec/internal/rng"
)

// referenceProgram is a circuit compiled for frame sampling.
type referenceProgram struct {
	// ops holds one op per state-affecting instruction, in circuit order,
	// each advancing a full lane. Ticks and zero-probability pure-noise
	// instructions compile to nothing (they neither touch frames nor
	// consume randomness), so skipping them preserves the RNG stream
	// bit-for-bit.
	ops []referenceOp

	// draws holds one draw per randomness-consuming instruction, in circuit
	// order. runBatch runs them once per active word (word-major),
	// reproducing exactly the randomness order of a 64-shot-per-pass
	// simulator running the batch's words as consecutive batches.
	draws []referenceDraw

	slots int // noise slots drawn per batch, in Lanes
	width int // most targets of any instruction

	qubits, meas, dets, obs int // the circuit's lane counts
}

// referenceOp is one compiled instruction.
type referenceOp struct {
	code    circuit.OpCode
	targets []int // qubits, shared with the circuit's instruction
	recs    []int // record indices of a detector or observable, shared likewise
	index   int   // record base of M/MX; detector or observable index
	// x and z are the first noise slots of the masks that enter the X and
	// Z parts of the frame, one Lane per target, or -1 for none. The
	// readout flips of M sit in x and those of MX in z: the part each
	// measurement reads.
	x, z int
}

// referenceDraw fills word w of one instruction's noise slots. A
// depolarizing channel writes n X masks from slot and then n Z masks; every other
// channel writes n bernoulli masks from slot.
type referenceDraw struct {
	code circuit.OpCode
	ch   channel
	slot int
	n    int // the instruction's target count
}

// referenceSimulator samples detector and observable flip bits for batches
// of shots of one referenceProgram.
type referenceSimulator struct {
	prog *referenceProgram
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

// newSimulator returns a simulator running p and drawing randomness from r.
func (p *referenceProgram) newSimulator(r *rng.RNG) *referenceSimulator {
	return &referenceSimulator{
		prog: p, rng: r,
		noise: make([]Lane, p.slots+p.width),
		xf:    make([]Lane, p.qubits),
		zf:    make([]Lane, p.qubits),
		recs:  make([]Lane, p.meas),
		det:   make([]Lane, p.dets),
		obs:   make([]Lane, p.obs),
	}
}

// referenceCompile lowers c's instruction list into a referenceProgram.
// Each op keeps its instruction's targets and records and — for
// measurements — the absolute measurement-record base; each draw keeps its
// channel and the noise slots it fills.
func referenceCompile(c *circuit.Circuit) *referenceProgram {
	p := &referenceProgram{qubits: c.NumQubits, meas: c.NumMeas, dets: c.NumDetectors, obs: c.NumObs}
	draws := 0
	for i := range c.Instructions {
		if referenceDrawsNoise(&c.Instructions[i]) {
			draws++
		}
	}
	p.ops = make([]referenceOp, 0, len(c.Instructions))
	p.draws = make([]referenceDraw, 0, draws)
	meas := 0
	for i := range c.Instructions {
		in := &c.Instructions[i]
		p.width = max(p.width, len(in.Targets))
		o := referenceOp{code: in.Op, targets: in.Targets, recs: in.Recs, index: in.Index, x: -1, z: -1}
		switch in.Op {
		case circuit.OpTick:
			continue // no state effect, no randomness
		case circuit.OpM, circuit.OpMX:
			o.index = meas
			meas += len(in.Targets)
		case circuit.OpXError, circuit.OpYError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2:
			if in.Arg <= 0 {
				continue // draws nothing and flips nothing
			}
		}
		if referenceDrawsNoise(in) {
			o.x, o.z = p.addDraw(in)
		}
		p.ops = append(p.ops, o)
	}
	return p
}

// referenceDrawsNoise reports whether in consumes randomness: a reset,
// measurement or noise channel whose Arg is not ≤ 0.
func referenceDrawsNoise(in *circuit.Instruction) bool {
	switch in.Op {
	case circuit.OpReset, circuit.OpResetX, circuit.OpM, circuit.OpMX,
		circuit.OpXError, circuit.OpYError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2:
		return !(in.Arg <= 0)
	}
	return false
}

// addDraw appends in's draw, assigns its noise slots and returns the op's
// X and Z slots.
func (p *referenceProgram) addDraw(in *circuit.Instruction) (x, z int) {
	n := len(in.Targets)
	slot := p.slots
	p.draws = append(p.draws, referenceDraw{code: in.Op, ch: newChannel(in.Arg), slot: slot, n: n})
	p.slots += n
	switch in.Op {
	case circuit.OpResetX, circuit.OpMX, circuit.OpZError:
		return -1, slot
	case circuit.OpYError:
		return slot, slot
	case circuit.OpDepolarize1, circuit.OpDepolarize2:
		p.slots += n
		return slot, slot + n
	}
	return slot, -1 // R, M, X_ERROR
}

// drawWord runs the draws for 64-shot word w, writing word w of every
// noise slot.
func (fs *referenceSimulator) drawWord(w int) {
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
func (fs *referenceSimulator) apply() {
	xf, zf := fs.xf, fs.zf
	for i := range fs.prog.ops {
		o := &fs.prog.ops[i]
		switch o.code {
		case circuit.OpH:
			for _, q := range o.targets {
				xf[q], zf[q] = zf[q], xf[q]
			}
		case circuit.OpS:
			// S maps X -> Y: an X frame gains a Z component.
			for _, q := range o.targets {
				xorLane(&zf[q], &xf[q])
			}
		case circuit.OpCX:
			for j := 0; j < len(o.targets); j += 2 {
				c, t := o.targets[j], o.targets[j+1]
				xc, xt, zc, zt := &xf[c], &xf[t], &zf[c], &zf[t]
				for w := 0; w < LaneWords; w++ {
					xt[w] ^= xc[w] // X on control propagates to target
					zc[w] ^= zt[w] // Z on target propagates to control
				}
			}
		case circuit.OpCZ:
			for j := 0; j < len(o.targets); j += 2 {
				a, b := o.targets[j], o.targets[j+1]
				xa, xb, za, zb := &xf[a], &xf[b], &zf[a], &zf[b]
				for w := 0; w < LaneWords; w++ {
					za[w] ^= xb[w]
					zb[w] ^= xa[w]
				}
			}
		case circuit.OpSwap:
			for j := 0; j < len(o.targets); j += 2 {
				a, b := o.targets[j], o.targets[j+1]
				xf[a], xf[b] = xf[b], xf[a]
				zf[a], zf[b] = zf[b], zf[a]
			}
		case circuit.OpReset, circuit.OpResetX:
			// Reset discards the frame; a noisy reset leaves an error in the
			// part its basis flips (X after |0>, Z after |+>).
			own, other, m := fs.basis(o)
			for j, q := range o.targets {
				own[q], other[q] = m[j], Lane{}
			}
		case circuit.OpM, circuit.OpMX:
			// An error in the part a measurement reads (X for M, Z for MX)
			// flips its outcome; readout error adds an independent classical
			// flip. The other part is a stabilizer of the collapsed state, so
			// it is cleared.
			own, other, m := fs.basis(o)
			for j, q := range o.targets {
				r, f, e := &fs.recs[o.index+j], &own[q], &m[j]
				for w := 0; w < LaneWords; w++ {
					r[w] = f[w] ^ e[w]
				}
				other[q] = Lane{}
			}
		case circuit.OpXError, circuit.OpYError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2:
			mx, mz := fs.masks(o.x), fs.masks(o.z)
			for j, q := range o.targets {
				x, z, ex, ez := &xf[q], &zf[q], &mx[j], &mz[j]
				for w := 0; w < LaneWords; w++ {
					x[w] ^= ex[w]
					z[w] ^= ez[w]
				}
			}
		case circuit.OpDetector:
			fs.det[o.index] = fs.parity(o.recs)
		case circuit.OpObservable:
			v := fs.parity(o.recs)
			xorLane(&fs.obs[o.index], &v)
		}
	}
}

// basis returns the frame part a reset or measurement acts on (X in the Z
// basis of R and M, Z in the X basis of RX and MX), the other part, and the
// op's noise masks for the first.
func (fs *referenceSimulator) basis(o *referenceOp) (own, other, masks []Lane) {
	if o.code == circuit.OpResetX || o.code == circuit.OpMX {
		return fs.zf, fs.xf, fs.masks(o.z)
	}
	return fs.xf, fs.zf, fs.masks(o.x)
}

// masks returns the noise lanes from slot on, or lanes that stay zero for
// a slot of -1, so an op XORs nothing into a part it has no noise in.
func (fs *referenceSimulator) masks(slot int) []Lane {
	if slot < 0 {
		return fs.noise[fs.prog.slots:]
	}
	return fs.noise[slot:]
}

// parity returns the XOR of the record lanes at idx.
func (fs *referenceSimulator) parity(idx []int) Lane {
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
func (fs *referenceSimulator) runBatch(words int) {
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

// sampleWhile runs shots trajectories and invokes visit once per batch,
// stopping as soon as visit returns false. The BatchResult lanes alias the
// simulator's scratch and are valid only until the next batch.
func (fs *referenceSimulator) sampleWhile(shots int, visit func(BatchResult) bool) {
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
