// Package stabilizer implements an Aaronson–Gottesman CHP tableau simulator
// for Clifford circuits with mid-circuit measurement and feedback.
//
// It is the substrate that replaces Stim/Qiskit for the paper's quantum
// error-correction experiments (§6.2): surface-code syndrome-extraction
// circuits are pure Clifford + measurement, and the tableau representation
// simulates hundreds of qubits exactly where a state vector could not.
// Rows are bit-packed into uint64 words, so a d=15 rotated surface code
// (449 qubits) measures in microseconds.
package stabilizer

import (
	"fmt"

	"artery/internal/stats"
)

// Tableau is the stabilizer state of an n-qubit register in the
// Aaronson–Gottesman representation: rows 0..n-1 are destabilizer
// generators, rows n..2n-1 are stabilizer generators, plus one scratch row
// used during deterministic measurement.
type Tableau struct {
	n     int
	words int        // words per row half (x or z block)
	x     [][]uint64 // x[i] = X-bits of row i
	z     [][]uint64 // z[i] = Z-bits of row i
	r     []uint8    // r[i] = sign bit of row i (0 => +1, 1 => -1)
}

// New returns an n-qubit tableau initialized to |0...0⟩
// (destabilizers X_i, stabilizers Z_i). It panics for n < 1.
func New(n int) *Tableau {
	if n < 1 {
		panic("stabilizer: qubit count must be positive")
	}
	words := (n + 63) / 64
	rows := 2*n + 1
	t := &Tableau{
		n:     n,
		words: words,
		x:     make([][]uint64, rows),
		z:     make([][]uint64, rows),
		r:     make([]uint8, rows),
	}
	for i := range t.x {
		t.x[i] = make([]uint64, words)
		t.z[i] = make([]uint64, words)
	}
	for q := 0; q < n; q++ {
		t.x[q][q/64] |= 1 << uint(q%64)   // destabilizer X_q
		t.z[n+q][q/64] |= 1 << uint(q%64) // stabilizer Z_q
	}
	return t
}

// NumQubits returns the register width.
func (t *Tableau) NumQubits() int { return t.n }

// Clone returns a deep copy of the tableau.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{n: t.n, words: t.words,
		x: make([][]uint64, len(t.x)),
		z: make([][]uint64, len(t.z)),
		r: append([]uint8(nil), t.r...),
	}
	for i := range t.x {
		c.x[i] = append([]uint64(nil), t.x[i]...)
		c.z[i] = append([]uint64(nil), t.z[i]...)
	}
	return c
}

func (t *Tableau) checkQubit(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("stabilizer: qubit %d out of range [0,%d)", q, t.n))
	}
}

func (t *Tableau) xbit(i, q int) uint64 { return (t.x[i][q/64] >> uint(q%64)) & 1 }

// H applies the Hadamard gate to qubit q.
func (t *Tableau) H(q int) {
	t.checkQubit(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i][w]&b, t.z[i][w]&b
		if xi != 0 && zi != 0 {
			t.r[i] ^= 1
		}
		// Swap the x and z bits.
		if (xi != 0) != (zi != 0) {
			t.x[i][w] ^= b
			t.z[i][w] ^= b
		}
	}
}

// S applies the phase gate diag(1, i) to qubit q.
func (t *Tableau) S(q int) {
	t.checkQubit(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i][w]&b, t.z[i][w]&b
		if xi != 0 && zi != 0 {
			t.r[i] ^= 1
		}
		if xi != 0 {
			t.z[i][w] ^= b
		}
	}
}

// Sdg applies the inverse phase gate (S³).
func (t *Tableau) Sdg(q int) { t.S(q); t.S(q); t.S(q) }

// CNOT applies a controlled-X from control c to target q.
func (t *Tableau) CNOT(c, q int) {
	t.checkQubit(c)
	t.checkQubit(q)
	if c == q {
		panic("stabilizer: CNOT with identical qubits")
	}
	cw, cb := c/64, uint64(1)<<uint(c%64)
	qw, qb := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		xc := t.x[i][cw]&cb != 0
		zc := t.z[i][cw]&cb != 0
		xt := t.x[i][qw]&qb != 0
		zt := t.z[i][qw]&qb != 0
		if xc && zt && (xt == zc) {
			t.r[i] ^= 1
		}
		if xc {
			t.x[i][qw] ^= qb
		}
		if zt {
			t.z[i][cw] ^= cb
		}
	}
}

// CZ applies a controlled-Z between a and b (compiled as H(b)·CNOT·H(b),
// matching the hardware decomposition).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CNOT(a, b)
	t.H(b)
}

// X applies the Pauli-X gate to qubit q.
func (t *Tableau) X(q int) {
	t.checkQubit(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i][w]&b != 0 {
			t.r[i] ^= 1
		}
	}
}

// Z applies the Pauli-Z gate to qubit q.
func (t *Tableau) Z(q int) {
	t.checkQubit(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][w]&b != 0 {
			t.r[i] ^= 1
		}
	}
}

// Y applies the Pauli-Y gate to qubit q.
func (t *Tableau) Y(q int) {
	t.checkQubit(q)
	w, b := q/64, uint64(1)<<uint(q%64)
	for i := 0; i < 2*t.n; i++ {
		if (t.x[i][w]&b != 0) != (t.z[i][w]&b != 0) {
			t.r[i] ^= 1
		}
	}
}

// rowsum multiplies row h by row i (h <- h * i), tracking the sign via the
// Aaronson–Gottesman g-function, computed word-parallel with popcounts.
func (t *Tableau) rowsum(h, i int) {
	g := 0
	for w := 0; w < t.words; w++ {
		x1, z1 := t.x[i][w], t.z[i][w]
		x2, z2 := t.x[h][w], t.z[h][w]
		// X on row i (x1=1,z1=0): +1 if x2&z2, -1 if ~x2&z2.
		xCase := x1 &^ z1
		g += popcount(xCase & x2 & z2)
		g -= popcount(xCase & ^x2 & z2)
		// Y on row i (x1=1,z1=1): +1 if z2&~x2, -1 if x2&~z2.
		yCase := x1 & z1
		g += popcount(yCase & z2 & ^x2)
		g -= popcount(yCase & x2 & ^z2)
		// Z on row i (x1=0,z1=1): +1 if x2&~z2, -1 if x2&z2.
		zCase := z1 &^ x1
		g += popcount(zCase & x2 & ^z2)
		g -= popcount(zCase & x2 & z2)
	}
	tot := 2*int(t.r[h]) + 2*int(t.r[i]) + g
	tot %= 4
	if tot < 0 {
		tot += 4
	}
	switch {
	case tot == 0:
		t.r[h] = 0
	case tot == 2:
		t.r[h] = 1
	case h < t.n:
		// Destabilizer row h anticommutes with row i, so the product is
		// ±i·P — a genuinely imaginary phase. Destabilizer signs are
		// "don't care" bits in the Aaronson–Gottesman scheme (nothing
		// ever reads them: outcomes come from stabilizer and scratch
		// rows, whose products stay real), so record an arbitrary bit
		// rather than rejecting the state. Measurement collapse hits
		// this case whenever S/Sdg gates have rotated a destabilizer
		// into the Y plane; H/CNOT-only (CSS) circuits never do.
		t.r[h] = uint8(tot & 1)
	default:
		panic("stabilizer: rowsum produced imaginary phase (corrupt tableau)")
	}
	for w := 0; w < t.words; w++ {
		t.x[h][w] ^= t.x[i][w]
		t.z[h][w] ^= t.z[i][w]
	}
}

func popcount(x uint64) int {
	// Kernighan-free SWAR popcount.
	x = x - ((x >> 1) & 0x5555555555555555)
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

// Measure performs a projective Z measurement of qubit q and returns the
// outcome. Random outcomes are drawn from rng.
func (t *Tableau) Measure(q int, rng *stats.RNG) int {
	t.checkQubit(q)
	n := t.n
	// Look for a stabilizer row with an X component on q (random outcome).
	p := -1
	for i := n; i < 2*n; i++ {
		if t.xbit(i, q) == 1 {
			p = i
			break
		}
	}
	if p >= 0 {
		for i := 0; i < 2*n; i++ {
			if i != p && t.xbit(i, q) == 1 {
				t.rowsum(i, p)
			}
		}
		// Destabilizer p-n becomes the old stabilizer row p.
		copy(t.x[p-n], t.x[p])
		copy(t.z[p-n], t.z[p])
		t.r[p-n] = t.r[p]
		// Row p becomes ±Z_q with a random sign.
		for w := 0; w < t.words; w++ {
			t.x[p][w] = 0
			t.z[p][w] = 0
		}
		t.z[p][q/64] |= 1 << uint(q%64)
		if rng.Bool(0.5) {
			t.r[p] = 1
		} else {
			t.r[p] = 0
		}
		return int(t.r[p])
	}
	// Deterministic outcome: accumulate into the scratch row.
	sc := 2 * n
	for w := 0; w < t.words; w++ {
		t.x[sc][w] = 0
		t.z[sc][w] = 0
	}
	t.r[sc] = 0
	for i := 0; i < n; i++ {
		if t.xbit(i, q) == 1 {
			t.rowsum(sc, i+n)
		}
	}
	return int(t.r[sc])
}

// MeasureDeterministic reports whether measuring q has a deterministic
// outcome, and if so which one, without disturbing the state.
func (t *Tableau) MeasureDeterministic(q int) (outcome int, deterministic bool) {
	t.checkQubit(q)
	for i := t.n; i < 2*t.n; i++ {
		if t.xbit(i, q) == 1 {
			return 0, false
		}
	}
	sc := 2 * t.n
	for w := 0; w < t.words; w++ {
		t.x[sc][w] = 0
		t.z[sc][w] = 0
	}
	t.r[sc] = 0
	for i := 0; i < t.n; i++ {
		if t.xbit(i, q) == 1 {
			t.rowsum(sc, i+t.n)
		}
	}
	return int(t.r[sc]), true
}

// Reset measures qubit q and flips it to |0⟩ if the outcome was 1,
// returning the pre-reset outcome.
func (t *Tableau) Reset(q int, rng *stats.RNG) int {
	m := t.Measure(q, rng)
	if m == 1 {
		t.X(q)
	}
	return m
}

// SWAP exchanges qubits a and b via three CNOTs, matching the
// state-vector decomposition (exact for tableaus — no phase subtlety).
func (t *Tableau) SWAP(a, b int) {
	t.CNOT(a, b)
	t.CNOT(b, a)
	t.CNOT(a, b)
}

// Prob1 returns the Born probability of measuring 1 on qubit q: exactly
// 0.5 when the outcome is random (some stabilizer anticommutes with Z_q),
// else exactly 0 or 1.
func (t *Tableau) Prob1(q int) float64 {
	out, det := t.MeasureDeterministic(q)
	if !det {
		return 0.5
	}
	return float64(out)
}

// Project collapses qubit q onto the given outcome without sampling,
// mirroring (*quantum.State).Project. It panics if the outcome has zero
// probability (a deterministic measurement that disagrees).
func (t *Tableau) Project(q, outcome int) {
	t.checkQubit(q)
	if outcome != 0 && outcome != 1 {
		panic("stabilizer: Project outcome must be 0 or 1")
	}
	n := t.n
	p := -1
	for i := n; i < 2*n; i++ {
		if t.xbit(i, q) == 1 {
			p = i
			break
		}
	}
	if p < 0 {
		// Deterministic: nothing to collapse, but the demanded outcome
		// must be the one the state already pins.
		got, _ := t.MeasureDeterministic(q)
		if got != outcome {
			panic("stabilizer: projection onto zero-probability outcome")
		}
		return
	}
	for i := 0; i < 2*n; i++ {
		if i != p && t.xbit(i, q) == 1 {
			t.rowsum(i, p)
		}
	}
	copy(t.x[p-n], t.x[p])
	copy(t.z[p-n], t.z[p])
	t.r[p-n] = t.r[p]
	for w := 0; w < t.words; w++ {
		t.x[p][w] = 0
		t.z[p][w] = 0
	}
	t.z[p][q/64] |= 1 << uint(q%64)
	t.r[p] = uint8(outcome)
}

// ResetAll re-initializes the tableau to |0...0⟩ in place, reusing its
// row storage — the pooling analogue of (*quantum.State).resetZero.
func (t *Tableau) ResetAll() {
	for i := range t.x {
		for w := 0; w < t.words; w++ {
			t.x[i][w] = 0
			t.z[i][w] = 0
		}
		t.r[i] = 0
	}
	for q := 0; q < t.n; q++ {
		t.x[q][q/64] |= 1 << uint(q%64)
		t.z[t.n+q][q/64] |= 1 << uint(q%64)
	}
}
