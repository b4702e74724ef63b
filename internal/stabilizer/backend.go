// Backend adapter: Sim wraps a Tableau behind the quantum.Backend
// contract so the compiled op-tape engine can execute Clifford circuits
// on the tableau representation. The adapter exists for one reason —
// the draw contract. The raw Tableau.Measure consumes randomness only
// for random outcomes (zero draws when the outcome is pinned), while
// quantum.Backend requires exactly one rng.Float64() per Measure so the
// state-vector and stabilizer backends consume identical per-shot RNG
// streams and runs stay bit-identical when the backend is swapped.
package stabilizer

import (
	"fmt"
	"sync"

	"artery/internal/quantum"
	"artery/internal/stats"
)

// Sim is a Tableau that satisfies quantum.Backend. The embedded tableau
// supplies the Clifford gates and Prob1/Project; Sim overrides Measure
// and Reset to honor the one-draw-per-measurement contract.
type Sim struct {
	*Tableau
}

var _ quantum.Backend = Sim{}

// Measure projectively measures qubit q, consuming exactly one
// rng.Float64() draw: the outcome is 1 iff the draw is below Prob1(q)
// (0, 0.5 or 1 on a tableau), exactly the state-vector convention.
func (s Sim) Measure(q int, rng *stats.RNG) int {
	out, det := s.Tableau.MeasureDeterministic(q)
	u := rng.Float64()
	if det {
		// The draw is burned for stream parity even though the outcome
		// was pinned (u < 0 never, u < 1 always — same as a state
		// vector with p1 exactly 0 or 1).
		return out
	}
	m := 0
	if u < 0.5 {
		m = 1
	}
	s.Tableau.Project(q, m)
	return m
}

// Reset measures q (one draw) and flips it back to |0⟩ on outcome 1,
// returning the pre-reset outcome.
func (s Sim) Reset(q int, rng *stats.RNG) int {
	m := s.Measure(q, rng)
	if m == 1 {
		s.Tableau.X(q)
	}
	return m
}

// Pool recycles tableau backends of one register width across
// Monte-Carlo shots, the tableau analogue of quantum.StatePool: a d=15
// surface-code register (449 qubits) is a ~500 KiB tableau, far too
// much to allocate per shot. Get returns a register re-initialized to
// |0...0⟩, indistinguishable from a fresh Sim{New(n)}.
//
// Concurrency contract: Pool is safe for concurrent Get/Put from
// multiple shot workers. The Sim values themselves are not — each
// belongs to exactly one worker between Get and Put.
type Pool struct {
	n    int
	pool sync.Pool
}

// NewPool returns a pool of n-qubit tableau backends.
func NewPool(n int) *Pool {
	if n < 1 {
		panic("stabilizer: qubit count must be positive")
	}
	p := &Pool{n: n}
	p.pool.New = func() interface{} { return New(n) }
	return p
}

// NumQubits returns the register width the pool serves.
func (p *Pool) NumQubits() int { return p.n }

// Get returns a tableau backend initialized to |0...0⟩, reusing a
// returned register when one is available.
func (p *Pool) Get() Sim {
	t := p.pool.Get().(*Tableau)
	t.ResetAll()
	return Sim{t}
}

// Put returns a backend to the pool. The caller must not touch it
// afterwards.
func (p *Pool) Put(s Sim) {
	if s.Tableau == nil {
		return
	}
	if s.Tableau.n != p.n {
		panic(fmt.Sprintf("stabilizer: returning %d-qubit tableau to %d-qubit pool", s.Tableau.n, p.n))
	}
	p.pool.Put(s.Tableau)
}
