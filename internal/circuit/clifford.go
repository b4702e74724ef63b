package circuit

import (
	"errors"
	"fmt"
	"math"

	"artery/internal/quantum"
)

// Clifford-purity analysis and execution (DESIGN.md "Simulation
// backends"). Compile classifies every tape — and every feedback branch
// body — as Clifford or not, so the engine can route Clifford circuits
// to the stabilizer tableau backend. A gate is Clifford when it maps
// Pauli operators to Pauli operators: the named gates X, Y, Z, H, S,
// Sdg, CNOT, CZ, SWAP always, and the axis rotations exactly at angles
// 0, ±π/2 and π (mod 2π), where they reduce to named Cliffords up to a
// global phase (irrelevant to both backends' measurement statistics).

// Typed errors the backend router returns when a circuit cannot run on
// the stabilizer backend. They are wrapped with context — test with
// errors.Is.
var (
	// ErrNonClifford marks a tape (or feedback body) containing a gate
	// outside the Clifford group.
	ErrNonClifford = errors.New("circuit: tape contains a non-Clifford gate")
	// ErrIrreversibleBody marks a feedback branch body containing
	// measure/reset instructions. Such a body has no precompiled inverse
	// tape, so a mispredicted pre-execution of it could not be undone.
	// The engine relies on the case-4 rule (an irreversible site never
	// commits a prediction) and panics should such a site ever commit;
	// the stabilizer backend rejects these circuits up front, so an
	// explicit tableau request is checked against the tape itself
	// rather than against the controller's behavior.
	ErrIrreversibleBody = errors.New("circuit: feedback body is irreversible")
)

// cliffordAngleTol is the recognition tolerance for rotation angles.
// Workloads spell Clifford rotations as ±math.Pi/2 literals, so exact
// comparison would suffice; the tolerance only absorbs benign arithmetic
// like negation and is far below any deliberate non-Clifford angle.
const cliffordAngleTol = 1e-9

// cliffordAngleClass classifies a rotation angle mod 2π: 0 for identity,
// ±1 for ±π/2, 2 for π, and ok=false for every other (non-Clifford) angle.
func cliffordAngleClass(angle float64) (class int, ok bool) {
	switch {
	case AngleEq(angle, 0, cliffordAngleTol):
		return 0, true
	case AngleEq(angle, math.Pi/2, cliffordAngleTol):
		return 1, true
	case AngleEq(angle, -math.Pi/2, cliffordAngleTol):
		return -1, true
	case AngleEq(angle, math.Pi, cliffordAngleTol):
		return 2, true
	}
	return 0, false
}

// cliffordRotationClass is cliffordAngleClass for a rotation gate that
// must be Clifford; it panics on any other angle.
func cliffordRotationClass(g Gate) int {
	class, ok := cliffordAngleClass(g.Angle)
	if !ok {
		panic(fmt.Sprintf("circuit: ApplyCliffordGate on non-Clifford gate %v", g))
	}
	return class
}

// IsCliffordGate reports whether g is in the Clifford group (up to
// global phase).
func IsCliffordGate(g Gate) bool {
	switch g.Kind {
	case X, Y, Z, H, S, Sdg, CNOT, CZ, SWAP:
		return true
	case RX, RY, RZ:
		_, ok := cliffordAngleClass(g.Angle)
		return ok
	}
	return false
}

// ApplyCliffordGate applies g to a backend using exact Clifford
// decompositions:
//
//	RX(+π/2) = Sdg·H·Sdg    RY(+π/2) = H·Z      RZ(+π/2) ≅ S
//	RX(−π/2) = S·H·S        RY(−π/2) = Z·H      RZ(−π/2) ≅ Sdg
//	RX(π) ≅ X               RY(π) ≅ Y           RZ(π) ≅ Z
//
// The RX/RY(±π/2) identities are exact as matrices; the ≅ cases differ
// by a global phase, which no Backend observable can see. It panics on
// non-Clifford gates — callers gate on the tape's Clifford flag.
func ApplyCliffordGate(b quantum.Backend, g Gate) {
	q := g.Qubits[0]
	switch g.Kind {
	case X:
		b.X(q)
	case Y:
		b.Y(q)
	case Z:
		b.Z(q)
	case H:
		b.H(q)
	case S:
		b.S(q)
	case Sdg:
		b.Sdg(q)
	case CNOT:
		b.CNOT(q, g.Qubits[1])
	case CZ:
		b.CZ(q, g.Qubits[1])
	case SWAP:
		b.SWAP(q, g.Qubits[1])
	case RX:
		switch cliffordRotationClass(g) {
		case 1:
			b.Sdg(q)
			b.H(q)
			b.Sdg(q)
		case -1:
			b.S(q)
			b.H(q)
			b.S(q)
		case 2:
			b.X(q)
		}
	case RY:
		// Matrix products read right to left: RY(+π/2) = H·Z applies Z
		// first.
		switch cliffordRotationClass(g) {
		case 1:
			b.Z(q)
			b.H(q)
		case -1:
			b.H(q)
			b.Z(q)
		case 2:
			b.Y(q)
		}
	case RZ:
		switch cliffordRotationClass(g) {
		case 1:
			b.S(q)
		case -1:
			b.Sdg(q)
		case 2:
			b.Z(q)
		}
	default:
		panic(fmt.Sprintf("circuit: ApplyCliffordGate on non-Clifford gate %v", g.Kind))
	}
}

// analyzeClifford computes the tape's Clifford flag (and, for feedback
// ops, the branch bodies' flags) after compilation.
func analyzeClifford(t *Tape) {
	t.Clifford = true
	for i := range t.Ops {
		op := &t.Ops[i]
		switch op.Kind {
		case TapeFused1Q:
			for _, g := range op.Gates {
				if !IsCliffordGate(g) {
					t.Clifford = false
					if t.NonClifford == (Gate{}) {
						t.NonClifford = g
					}
				}
			}
		case TapeGate2Q:
			if !IsCliffordGate(op.Gate) {
				t.Clifford = false
				if t.NonClifford == (Gate{}) {
					t.NonClifford = op.Gate
				}
			}
		case TapeFeedback:
			for _, body := range []*Tape{op.OnOne, op.OnZero, op.InvOnOne, op.InvOnZero} {
				if body == nil {
					continue
				}
				analyzeClifford(body)
				if !body.Clifford {
					t.Clifford = false
					if t.NonClifford == (Gate{}) {
						t.NonClifford = body.NonClifford
					}
				}
			}
		}
	}
}

// StabilizerCompat reports whether the tape can execute on the
// stabilizer backend: every gate (including feedback branch bodies) must
// be Clifford, and every branch body must be reversible, with an inverse
// tape for misprediction recovery. The error wraps ErrNonClifford or
// ErrIrreversibleBody.
func (t *Tape) StabilizerCompat() error {
	if !t.Clifford {
		g := t.NonClifford
		return fmt.Errorf("%w: %v(angle=%g) on qubit %d", ErrNonClifford, g.Kind, g.Angle, g.Qubits[0])
	}
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Kind != TapeFeedback {
			continue
		}
		if op.InvOnOne == nil {
			return fmt.Errorf("%w: site %d OnOne branch", ErrIrreversibleBody, op.Site)
		}
		if op.InvOnZero == nil {
			return fmt.Errorf("%w: site %d OnZero branch", ErrIrreversibleBody, op.Site)
		}
	}
	return nil
}
