// Package qec implements the rotated surface code used in the paper's
// quantum-error-correction evaluation (§6.2): code layout, syndrome
// extraction circuits, an exact lookup-table decoder for d=3 (the paper
// replaces its real-time decoder with a lookup table as well), a greedy
// matching decoder for larger distances, a logical-memory simulation over
// the stabilizer substrate, and the latency-benefit estimation model of
// Figure 12 (d).
package qec

import "fmt"

// StabKind distinguishes X- and Z-type stabilizers.
type StabKind int

// Stabilizer kinds.
const (
	StabX StabKind = iota // detects Z errors
	StabZ                 // detects X errors
)

func (k StabKind) String() string {
	if k == StabX {
		return "X"
	}
	return "Z"
}

// Stabilizer is one weight-2 or weight-4 check of the rotated code.
type Stabilizer struct {
	Kind StabKind
	// Support lists the data-qubit indices the check acts on.
	Support []int
	// Row, Col locate the plaquette on the dual lattice (diagnostics).
	Row, Col int
}

// Code is a distance-d rotated surface code.
type Code struct {
	Distance int
	// Data qubits are indexed 0..d²-1, at grid position (r, c) = (q/d, q%d).
	NumData     int
	Stabilizers []Stabilizer
	// LogicalX is the support of the logical X operator (a column of X's);
	// LogicalZ a row of Z's. They intersect in exactly one qubit.
	LogicalX []int
	LogicalZ []int
}

// NewCode constructs the rotated surface code of odd distance d >= 3.
func NewCode(d int) *Code {
	if d < 3 || d%2 == 0 {
		panic(fmt.Sprintf("qec: distance must be odd and >= 3, got %d", d))
	}
	c := &Code{Distance: d, NumData: d * d}
	q := func(r, col int) int { return r*d + col }

	// Plaquettes live at dual-lattice coordinates (i, j), i, j in 0..d.
	// A plaquette's corners are the data qubits (i-1,j-1),(i-1,j),(i,j-1),(i,j)
	// that fall inside the grid. Checkerboard typing: X when i+j is even.
	// Interior plaquettes (4 corners) are always kept; boundary plaquettes
	// (2 corners) are kept when their type matches the boundary: X checks on
	// the top/bottom edges, Z checks on the left/right edges.
	for i := 0; i <= d; i++ {
		for j := 0; j <= d; j++ {
			var support []int
			for _, rc := range [4][2]int{{i - 1, j - 1}, {i - 1, j}, {i, j - 1}, {i, j}} {
				if rc[0] >= 0 && rc[0] < d && rc[1] >= 0 && rc[1] < d {
					support = append(support, q(rc[0], rc[1]))
				}
			}
			kind := StabZ
			if (i+j)%2 == 0 {
				kind = StabX
			}
			keep := false
			switch len(support) {
			case 4:
				keep = true
			case 2:
				onTopBottom := i == 0 || i == d
				onLeftRight := j == 0 || j == d
				if onTopBottom && kind == StabX {
					keep = true
				}
				if onLeftRight && kind == StabZ {
					keep = true
				}
			}
			if keep {
				c.Stabilizers = append(c.Stabilizers, Stabilizer{Kind: kind, Support: support, Row: i, Col: j})
			}
		}
	}

	for r := 0; r < d; r++ {
		c.LogicalX = append(c.LogicalX, q(r, 0)) // column 0
	}
	for col := 0; col < d; col++ {
		c.LogicalZ = append(c.LogicalZ, q(0, col)) // row 0
	}
	return c
}

// NumStabilizers returns the check count (d²−1 for a rotated code).
func (c *Code) NumStabilizers() int { return len(c.Stabilizers) }

// StabilizersOf returns the indices of stabilizers of the given kind.
func (c *Code) StabilizersOf(kind StabKind) []int {
	var out []int
	for i, s := range c.Stabilizers {
		if s.Kind == kind {
			out = append(out, i)
		}
	}
	return out
}

// SyndromeOfX returns, for an X-error pattern on data qubits (bitmask by
// index), the triggered Z-stabilizer syndrome bits (one per Z check, in
// StabilizersOf(StabZ) order). X errors anticommute with Z checks.
func (c *Code) SyndromeOfX(xerr map[int]bool) []int {
	return c.syndromeOf(xerr, StabZ)
}

// SyndromeOfZ returns the X-stabilizer syndrome of a Z-error pattern.
func (c *Code) SyndromeOfZ(zerr map[int]bool) []int {
	return c.syndromeOf(zerr, StabX)
}

func (c *Code) syndromeOf(err map[int]bool, kind StabKind) []int {
	var out []int
	for _, s := range c.Stabilizers {
		if s.Kind != kind {
			continue
		}
		parity := 0
		for _, q := range s.Support {
			if err[q] {
				parity ^= 1
			}
		}
		out = append(out, parity)
	}
	return out
}
