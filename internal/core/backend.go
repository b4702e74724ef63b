package core

import (
	"errors"
	"fmt"
	"math"

	"artery/internal/circuit"
	"artery/internal/controller"
	"artery/internal/fault"
	"artery/internal/quantum"
	"artery/internal/stabilizer"
	"artery/internal/stats"
	"artery/internal/trace"
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

// runShotTableau executes one shot on a pooled stabilizer backend.
func (e *Engine) runShotTableau(wl *workload.Workload, plan *circuitPlan, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan) ShotResult {
	pool := e.tableauPool(wl.Circuit.NumQubits)
	b := pool.Get()
	defer pool.Put(b)
	return e.runShotBackend(b, wl, plan, rng, sess, span)
}

// runShotBackend executes one shot against any quantum.Backend,
// mirroring runShotCompiled's draw sequence operation for operation so
// the physics stream is bit-identical to the state-vector path on the
// same per-shot RNG. Two deliberate asymmetries:
//
//   - There is no ideal reference register (a tableau cannot report
//     fidelity), so Fidelity stays NaN. The state path's ideal register
//     consumes randomness in exactly one place — ideal.Reset draws one
//     Measure uniform per TapeReset — so this path burns one
//     rng.Float64() there to keep the streams aligned.
//   - Idle decay channels are draw-free no-ops under the Clifford-safe
//     noise this path requires, so only their depolarizing components
//     (the *B noise helpers) execute.
//
// The caller guarantees plan.tape.StabilizerCompat() == nil and
// e.Noise.CliffordSafe(); both are enforced by resolveBackend.
func (e *Engine) runShotBackend(b quantum.Backend, wl *workload.Workload, plan *circuitPlan, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan) ShotResult {
	c := wl.Circuit
	tape := plan.tape

	span.Span(trace.StagePayload, 0, wl.GatePayloadNs)

	// Thermal initial excitation; one Bool draw per entry, as on the
	// state path (which applies the same X to noisy and ideal).
	for q, p := range wl.InitExciteP {
		if rng.Bool(p) {
			b.X(q)
		}
	}

	sr := ShotResult{FeedbackLatencyNs: wl.GatePayloadNs, Fidelity: math.NaN()}
	if tape.NumSites > 0 {
		sr.Outcomes = make([]controller.Outcome, 0, tape.NumSites)
	}
	bits := e.siteBits(tape.NumSites)
	// Clifford-safe noise has no quasi-static component: nil, zero draws
	// (and the state path draws zero here too, keeping streams aligned).
	e.Noise.SampleDetunings(c.NumQubits, rng)
	for oi := range tape.Ops {
		op := &tape.Ops[oi]
		switch op.Kind {
		case circuit.TapeFused1Q:
			for gi := range op.Gates {
				g := op.Gates[gi]
				circuit.ApplyCliffordGate(b, g)
				if g.Kind != circuit.RZ { // virtual Z is error-free
					e.Noise.AfterGate1QB(b, op.Qubit, rng)
				}
			}
		case circuit.TapeGate2Q:
			circuit.ApplyCliffordGate(b, op.Gate)
			e.Noise.AfterGate2QB(b, op.Gate.Qubits[0], op.Gate.Qubits[1], rng)
		case circuit.TapeMeasure:
			m := e.Noise.NoisyMeasureB(b, op.Qubit, rng)
			if e.RecordMeasurements {
				sr.Measurements = append(sr.Measurements, m)
			}
		case circuit.TapeReset:
			m := b.Reset(op.Qubit, rng)
			rng.Float64() // the state path's ideal-reference Reset draw
			if e.RecordMeasurements {
				sr.Measurements = append(sr.Measurements, m)
			}
		case circuit.TapeFeedback:
			fb := op.FB
			a := plan.analyses[op.Site]
			prior := wl.SiteP1[op.Site]

			// Physical qubit state at readout start.
			m := b.Measure(fb.Qubit, rng)
			if e.RecordMeasurements {
				sr.Measurements = append(sr.Measurements, m)
			}

			span.SetSite(op.Site, fb.Qubit)
			r := e.readSite(bits, op.Site, m, rng, sess, span)
			out := e.Ctrl.Feedback(e.siteFor(a, op.Site, fb, prior), controller.Shot{Record: r, Faults: sess, Span: span})
			sr.Outcomes = append(sr.Outcomes, out)
			sr.FeedbackLatencyNs += out.LatencyNs

			// Latency-dependent idling; the read qubit's plain idle is a
			// draw-free no-op under Clifford-safe noise, the others' echo
			// windows still cost two X pulses of gate error each.
			for q := 0; q < c.NumQubits; q++ {
				if q == fb.Qubit {
					continue
				}
				e.Noise.ApplyIdleDetunedB(b, q, out.LatencyNs, e.EnableDD, rng)
			}
			// A wrongly pre-executed branch physically runs, is undone,
			// and only then does the correct branch run.
			if out.Committed && !out.Correct {
				wrongTape, invTape := op.OnOne, op.InvOnOne
				if out.Predicted == 0 {
					wrongTape, invTape = op.OnZero, op.InvOnZero
				}
				e.applyTapeNoisyB(b, wrongTape, rng)
				if invTape == nil {
					// Unreachable: StabilizerCompat rejects irreversible
					// bodies before a tableau run starts.
					panic(circuit.ErrIrreversibleBody)
				}
				e.applyTapeNoisyB(b, invTape, rng)
			}
			// The hardware acts on its classification (truth), which may
			// disagree with the physical state m on a readout error.
			bt := op.OnOne
			if r.Truth == 0 {
				bt = op.OnZero
			}
			e.applyTapeNoisyB(b, bt, rng)
		}
	}
	if sess != nil {
		sr.Faults = sess.C
	}
	return sr
}

// applyTapeNoisyB replays a compiled branch-body tape on a backend, gate
// by gate with the per-gate depolarizing draws interleaved exactly as in
// applyTapeNoisy.
func (e *Engine) applyTapeNoisyB(b quantum.Backend, t *circuit.Tape, rng *stats.RNG) {
	for oi := range t.Ops {
		op := &t.Ops[oi]
		switch op.Kind {
		case circuit.TapeFused1Q:
			for gi := range op.Gates {
				g := op.Gates[gi]
				circuit.ApplyCliffordGate(b, g)
				if g.Kind != circuit.RZ { // virtual Z is error-free
					e.Noise.AfterGate1QB(b, op.Qubit, rng)
				}
			}
		case circuit.TapeGate2Q:
			circuit.ApplyCliffordGate(b, op.Gate)
			e.Noise.AfterGate2QB(b, op.Gate.Qubits[0], op.Gate.Qubits[1], rng)
		}
	}
}
