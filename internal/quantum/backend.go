package quantum

import (
	"fmt"
	"math"

	"artery/internal/stats"
)

// MaxStateQubits is the widest register NewState supports: a 24-qubit
// state vector is 256 MiB of amplitudes, the practical wall for full
// state-vector simulation in this repository. Circuits wider than this
// can only run on the stabilizer backend.
const MaxStateQubits = 24

// Backend is the quantum-register contract the compiled op-tape engine
// executes against. Two implementations exist: *State (full state
// vector, arbitrary gates, fidelity readback) and stabilizer.Sim
// (Aaronson–Gottesman tableau, Clifford gates only, qubit count
// essentially free).
//
// Determinism contract: Measure consumes exactly ONE rng.Float64() draw
// per call — outcome 1 iff the draw is < Prob1(q) — and Reset is Measure
// plus a draw-free conditional X. Both implementations honor this, which
// is what keeps runs bit-identical when the engine swaps backends on the
// same per-shot SplitN streams: the draw SEQUENCE is part of the
// contract, not an implementation detail. (The one caveat: Prob1 of a
// maximally mixed branch is 0.5 exactly on the tableau but may sit one
// ulp off 0.5 on the state vector after rotations; a draw landing in
// that 2⁻⁵³-wide gap would diverge. No seeded test run does.)
//
// Concurrency contract: a Backend value belongs to exactly one shot
// worker between pool Get and Put, like *State.
type Backend interface {
	NumQubits() int

	// Clifford generators plus the named Paulis and two-qubit gates the
	// compiled tapes emit. Non-Clifford gates (T, arbitrary rotations)
	// are deliberately absent: tapes that need them fail Clifford
	// analysis and stay on the state-vector backend.
	X(q int)
	Y(q int)
	Z(q int)
	H(q int)
	S(q int)
	Sdg(q int)
	CNOT(control, target int)
	CZ(a, b int)
	SWAP(a, b int)

	// Measure projectively measures qubit q in Z, consuming exactly one
	// rng.Float64() draw. Reset is Measure followed by X when the
	// outcome was 1, returning the pre-reset outcome. Project collapses
	// onto a known outcome without drawing; it panics if the outcome has
	// zero probability.
	Measure(q int, rng *stats.RNG) int
	Reset(q int, rng *stats.RNG) int
	Prob1(q int) float64
	Project(q, outcome int)
}

// *State implements Backend.
var _ Backend = (*State)(nil)

// BackendKind selects which Backend implementation the engine uses for
// circuits it simulates. The zero value is BackendAuto.
type BackendKind uint8

const (
	// BackendAuto keeps today's behavior for every circuit a state
	// vector can hold within the engine's sim budget, and promotes
	// circuits wider than MaxStateQubits to the stabilizer backend when
	// they qualify (Clifford tape, Clifford-safe noise, reversible
	// feedback bodies).
	BackendAuto BackendKind = iota
	// BackendState forces the state-vector backend (and raises the
	// engine's sim width budget to MaxStateQubits).
	BackendState
	// BackendStabilizer forces the tableau backend; non-Clifford
	// workloads are rejected with a typed error.
	BackendStabilizer
)

// ParseBackendKind maps the CLI/wire spelling of a backend selector to
// its kind. The empty string means auto.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "state", "statevector":
		return BackendState, nil
	case "stabilizer", "tableau":
		return BackendStabilizer, nil
	}
	return BackendAuto, fmt.Errorf("quantum: unknown backend %q (want auto, state or stabilizer)", s)
}

// String returns the canonical spelling ParseBackendKind accepts.
func (k BackendKind) String() string {
	switch k {
	case BackendState:
		return "state"
	case BackendStabilizer:
		return "stabilizer"
	default:
		return "auto"
	}
}

// CliffordSafe reports whether every channel in the model maps Pauli
// errors to Pauli errors, i.e. whether the model can run on a stabilizer
// backend: depolarizing gate error and readout assignment flips qualify;
// finite T1/T2 (amplitude damping / continuous dephasing) and
// quasi-static detunings (coherent RZ by arbitrary angles) do not.
func (n *NoiseModel) CliffordSafe() bool {
	return math.IsInf(n.T1, 1) && math.IsInf(n.T2, 1) && n.QuasiStaticSigma <= 0
}
