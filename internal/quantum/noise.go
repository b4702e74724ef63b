package quantum

import (
	"math"

	"artery/internal/stats"
)

// NoiseModel captures the device error channels of the paper's 18-Xmon
// processor (§6.1). Times are in nanoseconds to match the latency models.
//
// Channels are applied as stochastic quantum trajectories on the state
// vector: each call samples one Kraus branch with its Born probability, so
// the shot-average reproduces the density-matrix channel exactly.
//
// Concurrency contract: a NoiseModel is plain read-only data once
// configured; all randomness comes from the caller-supplied RNG, so one
// model may be shared by concurrent shot workers (each with its own RNG
// stream and state vector).
type NoiseModel struct {
	T1 float64 // relaxation time, ns (paper: 110–140 µs)
	T2 float64 // dephasing time, ns (T2 <= 2*T1)

	Gate1QError  float64 // depolarizing prob per 1q gate (paper fidelity 99.94%)
	Gate2QError  float64 // depolarizing prob per 2q gate (paper fidelity 99.7%)
	ReadoutError float64 // assignment-flip prob (paper fidelity 99.0%)

	Gate1QTime  float64 // ns, XY pulse duration (paper: 30 ns)
	Gate2QTime  float64 // ns, CZ pulse duration (paper: 60 ns)
	ReadoutTime float64 // ns, readout pulse duration (paper: 2 µs)

	// QuasiStaticSigma is the standard deviation (rad/ns) of a per-shot
	// frozen frequency detuning on each qubit — the low-frequency 1/f
	// component of dephasing. Unlike the Markovian T2 channel it is
	// refocusable: an X echo halfway through an idle window cancels it,
	// which is what makes dynamical decoupling on idle qubits effective
	// (the paper adds DD to idle qubits in its QEC experiment, §6.2).
	QuasiStaticSigma float64
}

// DeviceNoise returns the noise model calibrated to the paper's device
// parameters: T1 = 125 µs (middle of 110–140 µs), T2 = 110 µs, gate
// fidelities 99.94 % / 99.7 %, readout fidelity 99.0 %, 30 ns XY pulses,
// 60 ns CZ pulses and a 2 µs readout.
func DeviceNoise() *NoiseModel {
	return &NoiseModel{
		T1:           125_000,
		T2:           110_000,
		Gate1QError:  0.0006,
		Gate2QError:  0.003,
		ReadoutError: 0.01,
		Gate1QTime:   30,
		Gate2QTime:   60,
		ReadoutTime:  2000,
	}
}

// Ideal returns a noiseless model (for unit tests and calibration runs).
func Ideal() *NoiseModel {
	return &NoiseModel{T1: math.Inf(1), T2: math.Inf(1), Gate1QTime: 30, Gate2QTime: 60, ReadoutTime: 2000}
}

// ApplyIdle evolves qubit q through dt nanoseconds of idling: amplitude
// damping with γ = 1−exp(−dt/T1) followed by pure dephasing such that the
// total coherence decay matches exp(−dt/T2). Amplitude damping needs the
// state vector, so a finite T1 panics on any other Backend; a CliffordSafe
// model makes the call a no-op that draws nothing.
func (n *NoiseModel) ApplyIdle(b Backend, q int, dt float64, rng *stats.RNG) {
	if dt <= 0 {
		return
	}
	if !math.IsInf(n.T1, 1) {
		gamma := 1 - math.Exp(-dt/n.T1)
		b.(*State).applyAmplitudeDamping(q, gamma, rng)
	}
	if !math.IsInf(n.T2, 1) {
		// T2 combines T1 decay and pure dephasing: 1/T2 = 1/(2 T1) + 1/Tφ.
		invTphi := 1/n.T2 - 1/(2*n.T1)
		if invTphi > 0 {
			lambda := 1 - math.Exp(-dt*invTphi)
			// Phase-flip-channel representation of dephasing.
			pFlip := lambda / 2
			if rng.Bool(pFlip) {
				b.Z(q)
			}
		}
	}
}

// applyAmplitudeDamping applies the T1 relaxation channel with decay
// probability gamma to qubit q, sampling one Kraus branch.
//
//	K0 = [[1, 0], [0, sqrt(1-γ)]]   (no jump)
//	K1 = [[0, sqrt(γ)], [0, 0]]     (relaxation |1⟩→|0⟩)
func (s *State) applyAmplitudeDamping(q int, gamma float64, rng *stats.RNG) {
	if gamma <= 0 {
		return
	}
	pJump := gamma * s.Prob1(q)
	if rng.Float64() < pJump {
		// Jump: project onto |1⟩ then flip to |0⟩ (normalized K1 action).
		s.project(q, 1)
		s.X(q)
		return
	}
	// No-jump branch: apply K0 and renormalize.
	s.Apply1Q(q, 1, 0, 0, complex(math.Sqrt(1-gamma), 0))
	norm := s.Norm()
	if norm == 0 {
		panic("quantum: zero norm after damping")
	}
	scale := complex(1/norm, 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
}

// ApplyDepolarizing applies a single-qubit depolarizing channel with
// probability p: with prob p a uniformly random Pauli error hits qubit q.
func (n *NoiseModel) ApplyDepolarizing(b Backend, q int, p float64, rng *stats.RNG) {
	if p <= 0 || !rng.Bool(p) {
		return
	}
	switch rng.Intn(3) {
	case 0:
		b.X(q)
	case 1:
		b.Y(q)
	default:
		b.Z(q)
	}
}

// AfterGate1Q applies the error channels that accompany one single-qubit
// gate on qubit q: depolarizing gate error plus T1/T2 decay over the gate
// duration.
func (n *NoiseModel) AfterGate1Q(b Backend, q int, rng *stats.RNG) {
	n.ApplyDepolarizing(b, q, n.Gate1QError, rng)
	n.ApplyIdle(b, q, n.Gate1QTime, rng)
}

// AfterGate2Q applies the error channels for one two-qubit gate on (a, c).
func (n *NoiseModel) AfterGate2Q(b Backend, a, c int, rng *stats.RNG) {
	n.ApplyDepolarizing(b, a, n.Gate2QError, rng)
	n.ApplyDepolarizing(b, c, n.Gate2QError, rng)
	n.ApplyIdle(b, a, n.Gate2QTime, rng)
	n.ApplyIdle(b, c, n.Gate2QTime, rng)
}

// SampleDetunings draws one frozen detuning (rad/ns) per qubit for a shot.
// Returns nil when the model has no quasi-static component.
func (n *NoiseModel) SampleDetunings(qubits int, rng *stats.RNG) []float64 {
	if n.QuasiStaticSigma <= 0 {
		return nil
	}
	out := make([]float64, qubits)
	for q := range out {
		out[q] = rng.NormMeanStd(0, n.QuasiStaticSigma)
	}
	return out
}

// ApplyIdleDetuned evolves qubit q through dt nanoseconds of idling with
// the shot's frozen detuning (rad/ns): the Markovian channels of ApplyIdle
// plus a coherent RZ(detuning·dt) phase accrual. The phase needs the state
// vector, so a nonzero detuning panics on any other Backend.
//
// With echo=true the window is executed as an X-echo (XY2) sequence:
// idle dt/2, X, idle dt/2, X. The coherent detuning phase accrued in the
// second half cancels the first half's, while Markovian decoherence is
// unaffected — exactly the dynamical-decoupling behaviour on hardware.
func (n *NoiseModel) ApplyIdleDetuned(b Backend, q int, dt, detuning float64, echo bool, rng *stats.RNG) {
	if dt <= 0 {
		return
	}
	if !echo {
		n.ApplyIdle(b, q, dt, rng)
		if detuning != 0 {
			b.(*State).RZ(q, detuning*dt)
		}
		return
	}
	// The detuning accrues +δ·dt/2 in each half in the lab frame; the X
	// pulses conjugate the first half's accrual to −δ·dt/2, so the two
	// halves cancel: X·RZ(θ)·X·RZ(θ) = RZ(−θ)·RZ(θ) = I.
	half := dt / 2
	for range 2 {
		n.ApplyIdle(b, q, half, rng)
		if detuning != 0 {
			b.(*State).RZ(q, detuning*half)
		}
		b.X(q)
		n.ApplyDepolarizing(b, q, n.Gate1QError, rng)
	}
}

// NoisyMeasure measures qubit q projectively and then flips the reported
// (classical) outcome with the readout assignment-error probability.
// The collapsed quantum state is the true post-measurement state; only the
// classical record is corrupted, which is how assignment error behaves on
// hardware.
func (n *NoiseModel) NoisyMeasure(b Backend, q int, rng *stats.RNG) int {
	m := b.Measure(q, rng)
	if rng.Bool(n.ReadoutError) {
		m ^= 1
	}
	return m
}
