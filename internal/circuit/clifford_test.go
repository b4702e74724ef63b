package circuit

import (
	"errors"
	"math"
	"strings"
	"testing"

	"artery/internal/quantum"
)

// genericPair returns a two-qubit state with no special structure: a
// global-phase or wrong-qubit slip in a gate decomposition changes its
// fidelity with the reference.
func genericPair() *quantum.State {
	s := quantum.NewState(2)
	s.RY(0, 0.3)
	s.RX(1, 1.1)
	s.CNOT(0, 1)
	s.RZ(0, 0.7)
	s.RY(1, 0.4)
	return s
}

// TestApplyCliffordGateMatchesStateVector checks every row of
// ApplyCliffordGate's decomposition table against the gate's own
// state-vector unitary, up to the global phase no backend observes.
func TestApplyCliffordGateMatchesStateVector(t *testing.T) {
	const hp = math.Pi / 2
	cases := []struct {
		name string
		g    Gate
	}{
		{"x", NewGate1(X, 0)},
		{"y", NewGate1(Y, 1)},
		{"z", NewGate1(Z, 0)},
		{"h", NewGate1(H, 1)},
		{"s", NewGate1(S, 0)},
		{"sdg", NewGate1(Sdg, 1)},
		{"cnot", NewGate2(CNOT, 1, 0)},
		{"cz", NewGate2(CZ, 0, 1)},
		{"swap", NewGate2(SWAP, 0, 1)},
		{"rx_plus_half_pi", NewRot(RX, 0, hp)},
		{"rx_minus_half_pi", NewRot(RX, 1, -hp)},
		{"rx_pi", NewRot(RX, 0, math.Pi)},
		{"rx_zero", NewRot(RX, 1, 0)},
		{"rx_five_half_pi", NewRot(RX, 0, 5*hp)},
		{"ry_plus_half_pi", NewRot(RY, 1, hp)},
		{"ry_minus_half_pi", NewRot(RY, 0, -hp)},
		{"ry_minus_pi", NewRot(RY, 1, -math.Pi)},
		{"rz_plus_half_pi", NewRot(RZ, 0, hp)},
		{"rz_minus_three_half_pi", NewRot(RZ, 1, -3*hp)},
		{"rz_pi", NewRot(RZ, 0, math.Pi)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !IsCliffordGate(c.g) {
				t.Fatalf("%v not classified Clifford", c.g)
			}
			want, got := genericPair(), genericPair()
			c.g.Apply(want)
			ApplyCliffordGate(got, c.g)
			if f := got.Fidelity(want); math.Abs(f-1) > 1e-12 {
				t.Fatalf("%v: fidelity with the state-vector gate = %v, want 1", c.g, f)
			}
		})
	}
}

func TestApplyCliffordGatePanicsOnNonClifford(t *testing.T) {
	for _, g := range []Gate{NewGate1(T, 0), NewGate1(Tdg, 0), NewRot(RX, 0, math.Pi/4), NewRot(RZ, 1, 0.3)} {
		if IsCliffordGate(g) {
			t.Errorf("%v classified Clifford", g)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ApplyCliffordGate(%v) did not panic", g)
				}
			}()
			ApplyCliffordGate(quantum.NewState(2), g)
		}()
	}
}

// TestStabilizerCompat checks the tableau router's verdicts: Clifford
// gates with reversible bodies pass, a non-Clifford gate anywhere (bodies
// included) wraps ErrNonClifford, and a measuring or resetting body wraps
// ErrIrreversibleBody naming the branch.
func TestStabilizerCompat(t *testing.T) {
	clifford := func() *Circuit {
		c := New(2)
		c.AddGate(NewGate1(H, 0))
		c.AddGate(NewGate2(CNOT, 0, 1))
		return c
	}
	ok := clifford().AddFeedback(&Feedback{
		Qubit:  0,
		OnOne:  Gates(NewGate1(X, 1)),
		OnZero: Gates(NewRot(RY, 1, math.Pi/2)),
	})
	if err := Compile(ok).StabilizerCompat(); err != nil {
		t.Fatalf("Clifford circuit with reversible bodies: %v", err)
	}

	cases := []struct {
		name    string
		c       *Circuit
		want    error
		mention string
	}{
		{"t-gate", clifford().AddGate(NewGate1(T, 1)), ErrNonClifford, "t("},
		{"non-clifford-body", clifford().AddFeedback(&Feedback{
			Qubit: 0,
			OnOne: Gates(NewRot(RX, 1, 0.25)),
		}), ErrNonClifford, "rx("},
		{"measuring-one-body", clifford().AddFeedback(&Feedback{
			Qubit: 0,
			OnOne: []Instruction{{Kind: OpMeasure, Qubit: 1}},
		}), ErrIrreversibleBody, "OnOne"},
		{"resetting-zero-body", clifford().AddFeedback(&Feedback{
			Qubit:  0,
			OnOne:  Gates(NewGate1(X, 1)),
			OnZero: []Instruction{{Kind: OpReset, Qubit: 1}},
		}), ErrIrreversibleBody, "OnZero"},
	}
	for _, c := range cases {
		err := Compile(c.c).StabilizerCompat()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.mention) {
			t.Errorf("%s: err %q does not mention %q", c.name, err, c.mention)
		}
	}
}

// TestGateKernelMatchesApply checks the precompiled kernel of every
// single-qubit gate kind against the State gate method, bit for bit.
func TestGateKernelMatchesApply(t *testing.T) {
	gates := []Gate{
		NewRot(RX, 0, 0.9), NewRot(RY, 1, -1.3), NewRot(RZ, 0, 2.2),
		NewGate1(X, 1), NewGate1(Y, 0), NewGate1(Z, 1), NewGate1(H, 0),
		NewGate1(S, 1), NewGate1(Sdg, 0), NewGate1(T, 1), NewGate1(Tdg, 0),
	}
	for _, g := range gates {
		want, got := genericPair(), genericPair()
		g.Apply(want)
		k := g.Kernel()
		got.ApplyKernel(g.Qubits[0], &k)
		for i := 0; i < 4; i++ {
			if got.Amplitude(i) != want.Amplitude(i) {
				t.Fatalf("%v: kernel amp[%d] = %v, gate method %v", g, i, got.Amplitude(i), want.Amplitude(i))
			}
		}
	}
	for _, g := range []Gate{NewGate2(CZ, 0, 1), NewGate2(CNOT, 0, 1), NewGate2(SWAP, 0, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Kernel of two-qubit %v did not panic", g)
				}
			}()
			g.Kernel()
		}()
	}
}

func TestGateConstructorsRejectWrongKinds(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRot(X)", func() { NewRot(X, 0, 1) })
	mustPanic("NewRot(CZ)", func() { NewRot(CZ, 0, 1) })
	mustPanic("NewGate2(H)", func() { NewGate2(H, 0, 1) })
	mustPanic("NewGate2(RZ)", func() { NewGate2(RZ, 0, 1) })
}

func TestIRStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{NewRot(RY, 2, 0.5).String(), "ry(0.500) q2"},
		{NewGate2(CNOT, 0, 3).String(), "cnot q0,q3"},
		{NewGate1(Sdg, 1).String(), "sdg q1"},
		{GateKind(99).String(), "gate(99)"},
		{Case1Independent.String(), "case1-independent"},
		{Case2Ancilla.String(), "case2-ancilla"},
		{Case3ReadQubit.String(), "case3-read-qubit"},
		{Case4Irreversible.String(), "case4-irreversible"},
		{PreExecCase(7).String(), "case(7)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
