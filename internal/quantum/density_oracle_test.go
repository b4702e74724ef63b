package quantum

import (
	"fmt"
	"math"
	"math/cmplx"

	"artery/internal/stats"
)

// Density is a density-matrix simulator for small registers. It evolves
// the exact mixed state under the same gate set and noise channels the
// Monte-Carlo state-vector simulator samples, providing the ground truth
// the trajectory method must average to: the package tests verify that
// shot-averaged State trajectories converge to Density evolution, which is
// the correctness argument for every fidelity number in the evaluation.
// It is a test oracle only; no production path evolves density matrices.
//
// Memory is O(4^n); keep n small (the validation suite uses n <= 5).
type Density struct {
	n   int
	rho []complex128 // row-major (2^n)x(2^n)
}

// NewDensity returns an n-qubit register in |0...0⟩⟨0...0|.
// It panics for n outside [1, 10].
func NewDensity(n int) *Density {
	if n < 1 || n > 10 {
		panic(fmt.Sprintf("quantum: unsupported density qubit count %d", n))
	}
	dim := 1 << uint(n)
	d := &Density{n: n, rho: make([]complex128, dim*dim)}
	d.rho[0] = 1
	return d
}

// FromState returns the pure-state density matrix |ψ⟩⟨ψ|.
func FromState(s *State) *Density {
	d := NewDensity(s.NumQubits())
	dim := 1 << uint(s.n)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			d.rho[i*dim+j] = s.amp[i] * cmplx.Conj(s.amp[j])
		}
	}
	return d
}

// NumQubits returns the register width.
func (d *Density) NumQubits() int { return d.n }

func (d *Density) dim() int { return 1 << uint(d.n) }

// At returns ρ[i][j].
func (d *Density) At(i, j int) complex128 { return d.rho[i*d.dim()+j] }

// Trace returns tr(ρ), which must be 1 for a valid state.
func (d *Density) Trace() complex128 {
	dim := d.dim()
	var t complex128
	for i := 0; i < dim; i++ {
		t += d.rho[i*dim+i]
	}
	return t
}

// Purity returns tr(ρ²) ∈ (0, 1]; 1 for pure states.
func (d *Density) Purity() float64 {
	dim := d.dim()
	p := 0.0
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			a := d.rho[i*dim+j]
			b := d.rho[j*dim+i]
			p += real(a * b) // tr(ρ²) is real for Hermitian ρ
		}
	}
	return p
}

// apply1Q conjugates ρ by the single-qubit operator {{u00,u01},{u10,u11}}
// on qubit q: ρ <- U ρ U†. Non-unitary Kraus operators are allowed (the
// caller is responsible for summing branches).
func (d *Density) apply1Q(q int, u00, u01, u10, u11 complex128) {
	dim := d.dim()
	bit := 1 << uint(q)
	// Left multiply: rows.
	for col := 0; col < dim; col++ {
		for r := 0; r < dim; r++ {
			if r&bit != 0 {
				continue
			}
			r1 := r | bit
			a0, a1 := d.rho[r*dim+col], d.rho[r1*dim+col]
			d.rho[r*dim+col] = u00*a0 + u01*a1
			d.rho[r1*dim+col] = u10*a0 + u11*a1
		}
	}
	// Right multiply by U†: columns.
	c00, c01 := cmplx.Conj(u00), cmplx.Conj(u01)
	c10, c11 := cmplx.Conj(u10), cmplx.Conj(u11)
	for row := 0; row < dim; row++ {
		base := row * dim
		for c := 0; c < dim; c++ {
			if c&bit != 0 {
				continue
			}
			c1 := c | bit
			a0, a1 := d.rho[base+c], d.rho[base+c1]
			// (ρU†)[.,c] = ρ[.,c]·conj(u00) + ρ[.,c1]·conj(u01), etc.
			d.rho[base+c] = a0*c00 + a1*c01
			d.rho[base+c1] = a0*c10 + a1*c11
		}
	}
}

// Apply1Q applies a single-qubit unitary to qubit q.
func (d *Density) Apply1Q(q int, u00, u01, u10, u11 complex128) {
	if q < 0 || q >= d.n {
		panic("quantum: density qubit out of range")
	}
	d.apply1Q(q, u00, u01, u10, u11)
}

// RX applies a rotation about X to qubit q.
func (d *Density) RX(q int, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	is := complex(0, -math.Sin(theta/2))
	d.Apply1Q(q, c, is, is, c)
}

// RY applies a rotation about Y to qubit q.
func (d *Density) RY(q int, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	sn := complex(math.Sin(theta/2), 0)
	d.Apply1Q(q, c, -sn, sn, c)
}

// RZ applies a rotation about Z to qubit q.
func (d *Density) RZ(q int, theta float64) {
	d.Apply1Q(q, cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2)))
}

// X applies Pauli-X to qubit q.
func (d *Density) X(q int) { d.Apply1Q(q, 0, 1, 1, 0) }

// Z applies Pauli-Z to qubit q.
func (d *Density) Z(q int) { d.Apply1Q(q, 1, 0, 0, -1) }

// H applies a Hadamard to qubit q.
func (d *Density) H(q int) {
	h := complex(1/math.Sqrt2, 0)
	d.Apply1Q(q, h, h, h, -h)
}

// CZ applies a controlled-Z between qubits a and b.
func (d *Density) CZ(a, b int) {
	if a == b || a < 0 || b < 0 || a >= d.n || b >= d.n {
		panic("quantum: invalid CZ qubits")
	}
	dim := d.dim()
	mask := (1 << uint(a)) | (1 << uint(b))
	for i := 0; i < dim; i++ {
		si := i&mask == mask
		for j := 0; j < dim; j++ {
			if si != (j&mask == mask) {
				d.rho[i*dim+j] = -d.rho[i*dim+j]
			}
		}
	}
}

// CNOT applies a controlled-X (control, target).
func (d *Density) CNOT(control, target int) {
	d.H(target)
	d.CZ(control, target)
	d.H(target)
}

// Prob1 returns the probability of measuring qubit q as 1.
func (d *Density) Prob1(q int) float64 {
	dim := d.dim()
	bit := 1 << uint(q)
	p := 0.0
	for i := 0; i < dim; i++ {
		if i&bit != 0 {
			p += real(d.rho[i*dim+i])
		}
	}
	return p
}

// applyKrausPair applies the channel ρ <- K0 ρ K0† + K1 ρ K1†, each Ki a
// single-qubit operator on q.
func (d *Density) applyKrausPair(q int, k0, k1 [4]complex128) {
	dim := d.dim()
	saved := append([]complex128(nil), d.rho...)
	d.apply1Q(q, k0[0], k0[1], k0[2], k0[3])
	branch0 := d.rho
	d.rho = saved
	d.apply1Q(q, k1[0], k1[1], k1[2], k1[3])
	for i := 0; i < dim*dim; i++ {
		d.rho[i] += branch0[i]
	}
}

// AmplitudeDamping applies the T1 relaxation channel with decay
// probability gamma to qubit q.
func (d *Density) AmplitudeDamping(q int, gamma float64) {
	if gamma <= 0 {
		return
	}
	s := complex(math.Sqrt(1-gamma), 0)
	g := complex(math.Sqrt(gamma), 0)
	d.applyKrausPair(q, [4]complex128{1, 0, 0, s}, [4]complex128{0, g, 0, 0})
}

// PhaseFlip applies a phase-flip channel with probability p to qubit q:
// ρ <- (1-p)ρ + p ZρZ.
func (d *Density) PhaseFlip(q int, p float64) {
	if p <= 0 {
		return
	}
	a := complex(math.Sqrt(1-p), 0)
	b := complex(math.Sqrt(p), 0)
	d.applyKrausPair(q, [4]complex128{a, 0, 0, a}, [4]complex128{b, 0, 0, -b})
}

// Depolarize applies a single-qubit depolarizing channel with probability
// p: with prob p a uniformly random Pauli hits q.
func (d *Density) Depolarize(q int, p float64) {
	if p <= 0 {
		return
	}
	dim := d.dim()
	orig := append([]complex128(nil), d.rho...)
	acc := make([]complex128, dim*dim)
	add := func(scale float64) {
		for i := range acc {
			acc[i] += complex(scale, 0) * d.rho[i]
		}
	}
	// Identity branch.
	for i := range acc {
		acc[i] += complex(1-p, 0) * orig[i]
	}
	// X, Y, Z branches.
	d.rho = append([]complex128(nil), orig...)
	d.Apply1Q(q, 0, 1, 1, 0)
	add(p / 3)
	d.rho = append([]complex128(nil), orig...)
	d.Apply1Q(q, 0, complex(0, -1), complex(0, 1), 0)
	add(p / 3)
	d.rho = append([]complex128(nil), orig...)
	d.Apply1Q(q, 1, 0, 0, -1)
	add(p / 3)
	d.rho = acc
}

// ApplyIdle evolves qubit q through dt nanoseconds of idling under the
// noise model, the exact counterpart of NoiseModel.ApplyIdle.
func (d *Density) ApplyIdle(nm *NoiseModel, q int, dt float64) {
	if dt <= 0 {
		return
	}
	if !math.IsInf(nm.T1, 1) {
		d.AmplitudeDamping(q, 1-math.Exp(-dt/nm.T1))
	}
	if !math.IsInf(nm.T2, 1) {
		invTphi := 1/nm.T2 - 1/(2*nm.T1)
		if invTphi > 0 {
			lambda := 1 - math.Exp(-dt*invTphi)
			d.PhaseFlip(q, lambda/2)
		}
	}
}

// FidelityWithState returns ⟨ψ|ρ|ψ⟩, the fidelity between the mixed state
// and a pure reference.
func (d *Density) FidelityWithState(s *State) float64 {
	if s.NumQubits() != d.n {
		panic("quantum: register size mismatch")
	}
	dim := d.dim()
	var f complex128
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			f += cmplx.Conj(s.amp[i]) * d.rho[i*dim+j] * s.amp[j]
		}
	}
	return real(f)
}

// AverageOfStates returns the mixed state (1/N) Σ |ψ_k⟩⟨ψ_k| of a
// trajectory ensemble — what Monte-Carlo averaging produces.
func AverageOfStates(states []*State) *Density {
	if len(states) == 0 {
		panic("quantum: empty ensemble")
	}
	d := NewDensity(states[0].NumQubits())
	dim := d.dim()
	for i := range d.rho {
		d.rho[i] = 0
	}
	w := complex(1/float64(len(states)), 0)
	for _, s := range states {
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				d.rho[i*dim+j] += w * s.amp[i] * cmplx.Conj(s.amp[j])
			}
		}
	}
	return d
}

// DistanceFrom returns the Frobenius distance ‖ρ−σ‖_F, a convergence
// metric for the trajectory-vs-exact validation tests.
func (d *Density) DistanceFrom(o *Density) float64 {
	if d.n != o.n {
		panic("quantum: register size mismatch")
	}
	sum := 0.0
	for i := range d.rho {
		diff := d.rho[i] - o.rho[i]
		sum += real(diff)*real(diff) + imag(diff)*imag(diff)
	}
	return math.Sqrt(sum)
}

// SampleTrajectories runs n Monte-Carlo state-vector trajectories of fn
// (which receives a fresh State and RNG) and returns their average density
// matrix — the bridge the validation tests use.
func SampleTrajectories(qubits, n int, seed uint64, fn func(*State, *stats.RNG)) *Density {
	rng := stats.NewRNG(seed)
	states := make([]*State, n)
	for k := 0; k < n; k++ {
		s := NewState(qubits)
		fn(s, rng.Split())
		states[k] = s
	}
	return AverageOfStates(states)
}
