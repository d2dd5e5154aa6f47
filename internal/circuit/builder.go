package circuit

// Builder incrementally assembles a Circuit. It tracks the measurement
// record so callers can reference measurements by relative offset (Stim's
// rec[-k] convention) and have them resolved to absolute indices. It also
// tracks the current QEC round (the number of Ticks emitted so far) and
// stamps it onto measurements and detectors, so the fully unrolled circuit
// keeps its round structure.
type Builder struct {
	c    Circuit
	tick int // ticks emitted so far == current round index
}

// NewBuilder returns a builder for a circuit over numQubits qubits.
func NewBuilder(numQubits int) *Builder {
	return &Builder{c: Circuit{NumQubits: numQubits}}
}

// NumQubits returns the qubit count the builder was created with.
func (b *Builder) NumQubits() int { return b.c.NumQubits }

// MeasCount returns the number of measurement record bits appended so far.
func (b *Builder) MeasCount() int { return b.c.NumMeas }

func (b *Builder) push(in Instruction) {
	b.c.Instructions = append(b.c.Instructions, in)
}

// H appends Hadamards on the given qubits.
func (b *Builder) H(qubits ...int) {
	if len(qubits) > 0 {
		b.push(Instruction{Op: OpH, Targets: qubits})
	}
}

// S appends phase gates on the given qubits.
func (b *Builder) S(qubits ...int) {
	if len(qubits) > 0 {
		b.push(Instruction{Op: OpS, Targets: qubits})
	}
}

// CX appends CNOTs over (control, target) pairs.
func (b *Builder) CX(pairs ...int) {
	if len(pairs)%2 != 0 {
		panic("circuit: CX needs (control,target) pairs")
	}
	if len(pairs) > 0 {
		b.push(Instruction{Op: OpCX, Targets: pairs})
	}
}

// CZ appends controlled-Z over qubit pairs.
func (b *Builder) CZ(pairs ...int) {
	if len(pairs)%2 != 0 {
		panic("circuit: CZ needs pairs")
	}
	if len(pairs) > 0 {
		b.push(Instruction{Op: OpCZ, Targets: pairs})
	}
}

// Swap appends SWAPs over qubit pairs.
func (b *Builder) Swap(pairs ...int) {
	if len(pairs)%2 != 0 {
		panic("circuit: Swap needs pairs")
	}
	if len(pairs) > 0 {
		b.push(Instruction{Op: OpSwap, Targets: pairs})
	}
}

// Reset appends |0> resets with reset error probability p.
func (b *Builder) Reset(p float64, qubits ...int) {
	if len(qubits) > 0 {
		b.push(Instruction{Op: OpReset, Targets: qubits, Arg: p})
	}
}

// ResetX appends |+> resets with reset error probability p.
func (b *Builder) ResetX(p float64, qubits ...int) {
	if len(qubits) > 0 {
		b.push(Instruction{Op: OpResetX, Targets: qubits, Arg: p})
	}
}

// M appends Z-basis measurements with readout flip probability p and
// returns the absolute record indices, one per qubit in order.
func (b *Builder) M(p float64, qubits ...int) []int {
	return b.measure(OpM, p, qubits)
}

// MX appends X-basis measurements with readout flip probability p.
func (b *Builder) MX(p float64, qubits ...int) []int {
	return b.measure(OpMX, p, qubits)
}

func (b *Builder) measure(op OpCode, p float64, qubits []int) []int {
	if len(qubits) == 0 {
		return nil
	}
	recs := make([]int, len(qubits))
	for i := range qubits {
		recs[i] = b.c.NumMeas + i
	}
	b.push(Instruction{Op: op, Targets: qubits, Arg: p, Round: b.tick})
	b.c.NumMeas += len(qubits)
	return recs
}

// Depolarize1 appends single-qubit depolarizing noise with probability p.
func (b *Builder) Depolarize1(p float64, qubits ...int) {
	if p > 0 && len(qubits) > 0 {
		b.push(Instruction{Op: OpDepolarize1, Targets: qubits, Arg: p})
	}
}

// Depolarize2 appends two-qubit depolarizing noise over pairs.
func (b *Builder) Depolarize2(p float64, pairs ...int) {
	if len(pairs)%2 != 0 {
		panic("circuit: Depolarize2 needs pairs")
	}
	if p > 0 && len(pairs) > 0 {
		b.push(Instruction{Op: OpDepolarize2, Targets: pairs, Arg: p})
	}
}

// XError appends X-flip noise with probability p.
func (b *Builder) XError(p float64, qubits ...int) {
	if p > 0 && len(qubits) > 0 {
		b.push(Instruction{Op: OpXError, Targets: qubits, Arg: p})
	}
}

// ZError appends Z-flip noise with probability p.
func (b *Builder) ZError(p float64, qubits ...int) {
	if p > 0 && len(qubits) > 0 {
		b.push(Instruction{Op: OpZError, Targets: qubits, Arg: p})
	}
}

// YError appends Y-flip noise with probability p.
func (b *Builder) YError(p float64, qubits ...int) {
	if p > 0 && len(qubits) > 0 {
		b.push(Instruction{Op: OpYError, Targets: qubits, Arg: p})
	}
}

// Detector appends a detector over absolute measurement record indices and
// returns the detector's index. Out-of-range record references are not
// checked here: they surface as a deferred error from Validate (via Finish),
// so tools like `caliqec vet` can report a bad circuit instead of crashing
// mid-construction.
func (b *Builder) Detector(recs ...int) int {
	idx := b.c.NumDetectors
	b.push(Instruction{Op: OpDetector, Recs: append([]int(nil), recs...), Index: idx, Round: b.tick})
	b.c.NumDetectors++
	return idx
}

// DetectorRel appends a detector over relative lookback offsets, where -1 is
// the most recent measurement (Stim's rec[-1]). A non-negative offset
// resolves to a record index at or beyond the current record and is
// reported by Validate.
func (b *Builder) DetectorRel(offsets ...int) int {
	recs := make([]int, len(offsets))
	for i, o := range offsets {
		recs[i] = b.c.NumMeas + o
	}
	return b.Detector(recs...)
}

// Observable includes measurement record bits into logical observable obs.
// Repeated calls with the same obs accumulate (XOR) more record bits. As
// with Detector, bad record references are deferred to Validate.
func (b *Builder) Observable(obs int, recs ...int) {
	if obs >= b.c.NumObs {
		b.c.NumObs = obs + 1
	}
	b.push(Instruction{Op: OpObservable, Recs: append([]int(nil), recs...), Index: obs})
}

// Tick appends a timing marker (one QEC-cycle boundary) and advances the
// round counter stamped onto subsequent measurements and detectors.
func (b *Builder) Tick() {
	b.push(Instruction{Op: OpTick})
	b.tick++
}

// Round returns the current round index: the number of Ticks emitted so far.
func (b *Builder) Round() int { return b.tick }

// Repeat invokes body n times; body receives the iteration number. The
// circuit is fully unrolled, so relative measurement references inside body
// resolve against the growing record as expected.
func (b *Builder) Repeat(n int, body func(round int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// Finish finalizes the circuit — its round count, then, once it validates,
// its fingerprint — and returns it along with any validation error. The
// builder must not be used afterwards. This is the entry point
// for tooling (`caliqec vet`) that wants to report a malformed circuit —
// including detector/observable record references accumulated as deferred
// errors — rather than crash.
func (b *Builder) Finish() (*Circuit, error) {
	c := b.c
	b.c = Circuit{}
	b.tick = 0
	for _, in := range c.Instructions {
		if in.Op == OpDetector && in.Round >= c.NumRounds {
			c.NumRounds = in.Round + 1
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.fp = c.Fingerprint()
	return &c, nil
}

// Build finalizes and returns the circuit. The builder must not be used
// afterwards. Build panics if the assembled circuit fails validation, since
// in generation code that always indicates a code-generation bug rather
// than bad user input; use Finish to get the error instead.
func (b *Builder) Build() *Circuit {
	c, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return c
}
