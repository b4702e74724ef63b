package core

import (
	"errors"
	"fmt"

	"artery/internal/circuit"
	"artery/internal/quantum"
	"artery/internal/stabilizer"
	"artery/internal/workload"
)

// Backend routing (DESIGN.md "Simulation backends"). The engine can
// advance a shot's physics on either of two quantum.Backend
// implementations: the full state vector (arbitrary gates, fidelity
// readback, ≤ quantum.MaxStateQubits) or the stabilizer tableau
// (Clifford gates only, hundreds of qubits). Selection happens once per
// run from (Engine.Backend, circuit width, the tape's Clifford analysis,
// the noise model):
//
//   - BackendAuto preserves the engine's historical behavior for every
//     circuit within the maxSimQubits state-vector budget, and promotes
//     wider circuits — which previously could not simulate at all — to
//     the tableau when tape and noise qualify.
//   - BackendState forces the state vector and raises the width budget
//     to quantum.MaxStateQubits (for head-to-head backend comparisons).
//   - BackendStabilizer forces the tableau and rejects circuits it
//     cannot faithfully execute with a typed error.
//
// Both backends draw measurement randomness from the same per-shot
// SplitN streams under the one-draw-per-measurement contract
// (quantum.Backend), so a Clifford workload produces bit-identical
// measurement records, controller outcomes and RunResult counters on
// either backend at any worker count. Fidelity is the one exception: a
// tableau has no amplitudes to compare, so stabilizer shots report NaN.

// ErrNoiseNotCliffordSafe is returned (wrapped) when the stabilizer
// backend is requested under a noise model with non-Clifford channels
// (finite T1/T2 or quasi-static detuning).
var ErrNoiseNotCliffordSafe = errors.New("core: noise model is not Clifford-safe (finite T1/T2 or quasi-static detuning)")

// simKind is the per-run resolution of Engine.Backend for one circuit.
type simKind uint8

const (
	simNone simKind = iota // no state simulation: prior-driven physics
	simState
	simTableau
)

// resolveBackend decides which backend (if any) simulates circuit c.
// Only explicit backend requests can fail; BackendAuto always resolves.
func (e *Engine) resolveBackend(plan *circuitPlan, c *circuit.Circuit) (simKind, error) {
	if !e.SimulateState {
		return simNone, nil
	}
	switch e.Backend {
	case quantum.BackendState:
		if c.NumQubits > quantum.MaxStateQubits {
			return simNone, fmt.Errorf("core: state backend cannot hold %d qubits (max %d)", c.NumQubits, quantum.MaxStateQubits)
		}
		return simState, nil
	case quantum.BackendStabilizer:
		if err := plan.tape.StabilizerCompat(); err != nil {
			return simNone, fmt.Errorf("core: stabilizer backend: %w", err)
		}
		if !e.Noise.CliffordSafe() {
			return simNone, fmt.Errorf("%w", ErrNoiseNotCliffordSafe)
		}
		return simTableau, nil
	default: // BackendAuto
		if c.NumQubits <= maxSimQubits {
			return simState, nil
		}
		if c.NumQubits > quantum.MaxStateQubits &&
			e.Noise.CliffordSafe() && plan.tape.StabilizerCompat() == nil {
			return simTableau, nil
		}
		// 17..24 qubits under auto, or an unsimulable wide circuit:
		// latency-only physics, exactly as before this layer existed.
		return simNone, nil
	}
}

// simKindFor is resolveBackend for callers that have already validated
// the configuration (the facade routes through CheckBackend); an
// invalid explicit backend panics here like other configuration errors.
func (e *Engine) simKindFor(plan *circuitPlan, c *circuit.Circuit) simKind {
	sk, err := e.resolveBackend(plan, c)
	if err != nil {
		panic(err)
	}
	return sk
}

// CheckBackend reports whether the engine's backend selection is valid
// for the workload's circuit, without running anything. The error wraps
// circuit.ErrNonClifford, circuit.ErrIrreversibleBody or
// ErrNoiseNotCliffordSafe; errors.Is works through it.
func (e *Engine) CheckBackend(wl *workload.Workload) error {
	if err := ValidateWorkload(wl); err != nil {
		return err
	}
	_, err := e.resolveBackend(e.planFor(wl.Circuit), wl.Circuit)
	return err
}

// tableauPool returns the engine's shared tableau pool for n qubits.
func (e *Engine) tableauPool(n int) *stabilizer.Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tabPools == nil {
		e.tabPools = map[int]*stabilizer.Pool{}
	}
	p, ok := e.tabPools[n]
	if !ok {
		p = stabilizer.NewPool(n)
		e.tabPools[n] = p
	}
	return p
}
