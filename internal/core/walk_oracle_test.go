package core

import (
	"math"

	"artery/internal/circuit"
	"artery/internal/controller"
	"artery/internal/fault"
	"artery/internal/quantum"
	"artery/internal/stats"
	"artery/internal/trace"
	"artery/internal/workload"
)

// The interpreted shot walker, the oracle of the compiled-execution
// differential tests (compiled_test.go). Production shots replay the
// compiled tape; these tests drive the walker directly, one RNG stream per
// shot, and compare every walked shot with the one Run merged.

// runShotWalk executes one shot by walking the circuit's instruction list
// directly: the reference semantics that the compiled tape replay
// (runShot) and the latency-only synth/feedback pipeline must reproduce
// bit for bit. It stays deliberately close to the paper's
// operational description and applies every gate individually.
func (e *Engine) runShotWalk(wl *workload.Workload, analyses []*circuit.SiteAnalysis, simulate bool, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan) ShotResult {
	c := wl.Circuit

	// The workload's fixed gate payload is a shot-scoped span (site -1),
	// recorded before the first SetSite.
	span.Span(trace.StagePayload, 0, wl.GatePayloadNs)

	var noisy, ideal *quantum.State
	idealAlive := true
	if simulate {
		pool := e.statePool(c.NumQubits)
		noisy = pool.Get()
		ideal = pool.Get()
		defer pool.Put(noisy)
		defer pool.Put(ideal)
		// Thermal initial excitation (e.g. the population active reset
		// exists to remove). The ideal reference starts identically: reset
		// must clean it up, so fidelity is judged against the same start.
		for q, p := range wl.InitExciteP {
			if rng.Bool(p) {
				noisy.X(q)
				ideal.X(q)
			}
		}
	}

	sr := ShotResult{FeedbackLatencyNs: wl.GatePayloadNs, Fidelity: math.NaN()}
	bits := e.siteBits(len(analyses))
	var detunings []float64
	if simulate {
		detunings = e.Noise.SampleDetunings(c.NumQubits, rng)
	}
	detuningOf := func(q int) float64 {
		if detunings == nil {
			return 0
		}
		return detunings[q]
	}
	siteIdx := 0
	for _, in := range c.Ins {
		switch in.Kind {
		case circuit.OpGate:
			if simulate {
				e.applyGate(noisy, in.Gate, rng)
				in.Gate.Apply(ideal)
			}
		case circuit.OpMeasure:
			if simulate {
				m := e.Noise.NoisyMeasure(noisy, in.Qubit, rng)
				idealAlive = idealAlive && projectIdeal(ideal, in.Qubit, m)
				if e.RecordMeasurements {
					sr.Measurements = append(sr.Measurements, m)
				}
			}
		case circuit.OpReset:
			if simulate {
				m := noisy.Reset(in.Qubit, rng)
				ideal.Reset(in.Qubit, rng)
				if e.RecordMeasurements {
					sr.Measurements = append(sr.Measurements, m)
				}
			}
		case circuit.OpFeedback:
			fb := in.Feedback
			a := analyses[siteIdx]
			prior := wl.SiteP1[siteIdx]

			// Physical qubit state at readout start.
			var m int
			if simulate {
				m = noisy.Measure(fb.Qubit, rng)
			} else {
				if rng.Bool(prior) {
					m = 1
				}
			}
			if simulate && e.RecordMeasurements {
				sr.Measurements = append(sr.Measurements, m)
			}

			span.SetSite(siteIdx, fb.Qubit)
			r := e.readSite(bits, siteIdx, m, rng, sess, span)
			out := e.Ctrl.Feedback(e.siteFor(a, siteIdx, fb, prior), controller.Shot{Record: r, Faults: sess, Span: span})
			sr.Outcomes = append(sr.Outcomes, out)
			sr.FeedbackLatencyNs += out.LatencyNs

			if simulate {
				// Latency-dependent idling: branch qubits wait for the
				// feedback decision; the read qubit is pinned for at least
				// the readout pulse. Idle windows optionally run as X-echo
				// (DD) sequences, refocusing quasi-static dephasing; the
				// measured qubit holds a classical state during readout, so
				// it takes no echo.
				for q := 0; q < c.NumQubits; q++ {
					dt := out.LatencyNs
					if q == fb.Qubit {
						if dt < e.Channel.Cal.DurationNs {
							dt = e.Channel.Cal.DurationNs
						}
						e.Noise.ApplyIdle(noisy, q, dt, rng)
						continue
					}
					e.Noise.ApplyIdleDetuned(noisy, q, dt, detuningOf(q), e.EnableDD, rng)
				}
				// A wrongly pre-executed branch physically runs, is undone,
				// and only then does the correct branch run: the extra gate
				// churn costs real gate error.
				if out.Committed && !out.Correct {
					wrong := fb.OnOne
					if out.Predicted == 0 {
						wrong = fb.OnZero
					}
					e.applyBody(noisy, wrong, rng)
					e.applyBody(noisy, circuit.InverseOf(wrong), rng)
				}
				// The hardware acts on its classification (truth), which may
				// disagree with the physical state m on a readout error.
				e.applyBody(noisy, bodyOf(fb, r.Truth), rng)

				// Ideal reference: perfect hardware follows the physical
				// outcome instantly and noiselessly.
				idealAlive = idealAlive && projectIdeal(ideal, fb.Qubit, m)
				if idealAlive {
					for _, bi := range bodyOf(fb, m) {
						if bi.Kind == circuit.OpGate {
							bi.Gate.Apply(ideal)
						}
					}
				}
			}
			siteIdx++
		}
	}
	if simulate {
		if idealAlive {
			sr.Fidelity = noisy.Fidelity(ideal)
		} else {
			sr.Fidelity = 0
		}
	}
	if sess != nil {
		sr.Faults = sess.C
	}
	return sr
}

func bodyOf(fb *circuit.Feedback, outcome int) []circuit.Instruction {
	if outcome == 1 {
		return fb.OnOne
	}
	return fb.OnZero
}

// applyGate applies one gate with its accompanying noise channels.
func (e *Engine) applyGate(s *quantum.State, g circuit.Gate, rng *stats.RNG) {
	g.Apply(s)
	if g.Kind.TwoQubit() {
		e.Noise.AfterGate2Q(s, g.Qubits[0], g.Qubits[1], rng)
	} else if g.Kind != circuit.RZ { // virtual Z is error-free
		e.Noise.AfterGate1Q(s, g.Qubits[0], rng)
	}
}

// applyBody applies a branch body with noise, skipping non-gate entries.
func (e *Engine) applyBody(s *quantum.State, body []circuit.Instruction, rng *stats.RNG) {
	for _, in := range body {
		if in.Kind == circuit.OpGate {
			e.applyGate(s, in.Gate, rng)
		}
	}
}
