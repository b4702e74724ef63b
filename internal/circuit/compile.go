package circuit

import (
	"fmt"

	"artery/internal/quantum"
)

// This file implements the compilation layer between circuit analysis and
// shot execution (DESIGN.md "Compiled execution"). Compile flattens a
// Circuit into a Tape: a linear []TapeOp the engine replays per shot
// without re-walking the instruction structure, with adjacent single-qubit
// gates on the same wire fused into one kernel chain and feedback branch
// bodies (plus their misprediction-recovery inverses) precompiled.
//
// Fusion never reorders anything: a fused run is a maximal sequence of
// *consecutive* single-qubit gates on one wire, and every other op kind
// breaks the run. Replaying a fused run pair-by-pair performs exactly the
// floating-point operations of the unfused gates in the original order
// (see the bit-identity contract in internal/quantum/kernels.go), so the
// compiled path is bit-identical to a gate-by-gate walk — enforced by
// FuzzCompiledVsInterpreted here and by the engine-level differential
// tests in internal/core, which replay every shot through an instruction
// walk.

// TapeOpKind discriminates compiled operations.
type TapeOpKind uint8

// Tape op kinds.
const (
	// TapeFused1Q is a maximal run of consecutive single-qubit gates on one
	// wire, replayed as one fused kernel chain (ideal evolution) or gate by
	// gate (noisy evolution, which must interleave per-gate noise draws).
	TapeFused1Q TapeOpKind = iota
	// TapeGate2Q is one two-qubit gate.
	TapeGate2Q
	// TapeMeasure is a terminal measurement.
	TapeMeasure
	// TapeReset is an unconditional reset.
	TapeReset
	// TapeFeedback is a feedback site with precompiled branch bodies.
	TapeFeedback
)

// TapeOp is one operation of a compiled circuit. Fields are meaningful per
// kind: Qubit for TapeFused1Q/TapeMeasure/TapeReset (and the measured qubit
// for TapeFeedback), Gates/Ks for TapeFused1Q, Gate for TapeGate2Q, and
// Site/FB plus the body tapes for TapeFeedback.
type TapeOp struct {
	Kind  TapeOpKind
	Qubit int

	// TapeFused1Q: the original gates of the run (needed for per-gate noisy
	// replay and duration accounting) and their kernels, index-aligned.
	Gates []Gate
	Ks    []quantum.K1

	// TapeGate2Q: the gate.
	Gate Gate

	// TapeFeedback: ordinal of this site among the circuit's feedback sites
	// (indexes the engine's per-site analysis slice), the site itself, the
	// compiled branch bodies, and the compiled inverse bodies used for
	// misprediction recovery. Inverse tapes are nil for irreversible
	// (case 4) bodies, which legality analysis never pre-executes.
	Site      int
	FB        *Feedback
	OnOne     *Tape
	OnZero    *Tape
	InvOnOne  *Tape
	InvOnZero *Tape
}

// Tape is a compiled circuit: a flat op list the engine replays per shot.
type Tape struct {
	NumQubits int
	Ops       []TapeOp
	// NumSites is the number of feedback sites; SiteQubits[i] is the
	// measured qubit of site i.
	NumSites   int
	SiteQubits []int
	// Clifford reports whether every gate on the tape — including all
	// feedback branch bodies and their inverses — is in the Clifford
	// group, the precondition for the stabilizer backend. NonClifford
	// is the first offending gate when it is not (for error messages).
	Clifford    bool
	NonClifford Gate
}

// Kernel returns the compiled single-qubit kernel of g. It panics for
// two-qubit gates. The kernel is computed by the same constructors the
// State gate methods use, so precompiling it cannot change a bit.
func (g Gate) Kernel() quantum.K1 {
	switch g.Kind {
	case RX:
		return quantum.KernelRX(g.Angle)
	case RY:
		return quantum.KernelRY(g.Angle)
	case RZ:
		return quantum.KernelRZ(g.Angle)
	case X:
		return quantum.KX()
	case Y:
		return quantum.KY()
	case Z:
		return quantum.KZ()
	case H:
		return quantum.KH()
	case S:
		return quantum.KS()
	case Sdg:
		return quantum.KSdg()
	case T:
		return quantum.KernelT()
	case Tdg:
		return quantum.KernelTdg()
	default:
		panic(fmt.Sprintf("circuit: Kernel of two-qubit gate %v", g.Kind))
	}
}

// tapeBuilder accumulates ops, maintaining the open 1Q fusion run.
type tapeBuilder struct {
	tape Tape
	// open fusion run (runQ < 0 when none)
	runQ     int
	runGates []Gate
	runKs    []quantum.K1
}

func newTapeBuilder(numQubits int) *tapeBuilder {
	return &tapeBuilder{tape: Tape{NumQubits: numQubits}, runQ: -1}
}

func (b *tapeBuilder) flush() {
	if b.runQ < 0 {
		return
	}
	b.tape.Ops = append(b.tape.Ops, TapeOp{
		Kind:  TapeFused1Q,
		Qubit: b.runQ,
		Gates: b.runGates,
		Ks:    b.runKs,
	})
	b.runQ, b.runGates, b.runKs = -1, nil, nil
}

func (b *tapeBuilder) addGate(g Gate) {
	if g.Kind.TwoQubit() {
		b.flush()
		b.tape.Ops = append(b.tape.Ops, TapeOp{Kind: TapeGate2Q, Gate: g})
		return
	}
	q := g.Qubits[0]
	if b.runQ != q {
		b.flush()
		b.runQ = q
	}
	b.runGates = append(b.runGates, g)
	b.runKs = append(b.runKs, g.Kernel())
}

// allGates reports whether a branch body is reversible (contains only
// gates), the precondition for precompiling its inverse.
func allGates(body []Instruction) bool {
	for _, in := range body {
		if in.Kind != OpGate {
			return false
		}
	}
	return true
}

// compileBody compiles a feedback branch body. Non-gate instructions are
// dropped: the engine executes only a body's gates, as the instruction
// walk in internal/core's tests does, so the tape encodes exactly what
// executes.
func compileBody(body []Instruction, numQubits int) *Tape {
	b := newTapeBuilder(numQubits)
	for _, in := range body {
		if in.Kind == OpGate {
			b.addGate(in.Gate)
		}
	}
	b.flush()
	return &b.tape
}

// Compile flattens c into a replayable op tape. The compile is pure — it
// depends only on the circuit — so the result may be cached and shared by
// any number of concurrent shot workers.
func Compile(c *Circuit) *Tape {
	b := newTapeBuilder(c.NumQubits)
	for _, in := range c.Ins {
		switch in.Kind {
		case OpGate:
			b.addGate(in.Gate)
		case OpMeasure:
			b.flush()
			b.tape.Ops = append(b.tape.Ops, TapeOp{Kind: TapeMeasure, Qubit: in.Qubit})
		case OpReset:
			b.flush()
			b.tape.Ops = append(b.tape.Ops, TapeOp{Kind: TapeReset, Qubit: in.Qubit})
		case OpFeedback:
			b.flush()
			fb := in.Feedback
			op := TapeOp{
				Kind:   TapeFeedback,
				Qubit:  fb.Qubit,
				Site:   b.tape.NumSites,
				FB:     fb,
				OnOne:  compileBody(fb.OnOne, c.NumQubits),
				OnZero: compileBody(fb.OnZero, c.NumQubits),
			}
			if allGates(fb.OnOne) {
				op.InvOnOne = compileBody(InverseOf(fb.OnOne), c.NumQubits)
			}
			if allGates(fb.OnZero) {
				op.InvOnZero = compileBody(InverseOf(fb.OnZero), c.NumQubits)
			}
			b.tape.Ops = append(b.tape.Ops, op)
			b.tape.SiteQubits = append(b.tape.SiteQubits, fb.Qubit)
			b.tape.NumSites++
		default:
			panic("circuit: Compile on unknown instruction kind")
		}
	}
	b.flush()
	analyzeClifford(&b.tape)
	return &b.tape
}

// Apply replays the tape's gate operations on a state with fused kernel
// chains — the ideal (noiseless) evolution. It panics on measure, reset or
// feedback ops, which need an RNG and belong to the engine.
func (t *Tape) Apply(s *quantum.State) {
	for i := range t.Ops {
		op := &t.Ops[i]
		switch op.Kind {
		case TapeFused1Q:
			s.ApplyKernelChain(op.Qubit, op.Ks)
		case TapeGate2Q:
			op.Gate.Apply(s)
		default:
			panic(fmt.Sprintf("circuit: Tape.Apply on non-gate op kind %d", op.Kind))
		}
	}
}

// CountOps returns the number of compiled ops, a coarse fusion metric used
// by tests and diagnostics (fewer ops than gates means fusion happened).
func (t *Tape) CountOps() int { return len(t.Ops) }
