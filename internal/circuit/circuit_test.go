package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"artery/internal/quantum"
	"artery/internal/stats"
)

func TestGateInverses(t *testing.T) {
	rng := stats.NewRNG(1)
	gates := []Gate{
		NewRot(RX, 0, 1.1),
		NewRot(RY, 1, -0.7),
		NewRot(RZ, 2, 2.9),
		NewGate1(X, 0), NewGate1(Y, 1), NewGate1(Z, 2), NewGate1(H, 0),
		NewGate1(S, 1), NewGate1(Sdg, 2), NewGate1(T, 0), NewGate1(Tdg, 1),
		NewGate2(CZ, 0, 2), NewGate2(CNOT, 1, 0), NewGate2(SWAP, 2, 1),
	}
	for _, g := range gates {
		s := quantum.NewState(3)
		// Random-ish initial state.
		for q := 0; q < 3; q++ {
			s.RY(q, rng.Float64()*math.Pi)
			s.RZ(q, rng.Float64()*math.Pi)
		}
		s.CZ(0, 1)
		ref := s.Clone()
		g.Apply(s)
		g.Inverse().Apply(s)
		if f := s.Fidelity(ref); math.Abs(f-1) > 1e-10 {
			t.Errorf("%v followed by inverse is not identity: fidelity %v", g, f)
		}
	}
}

func TestInverseIsInvolutionProperty(t *testing.T) {
	f := func(kind uint8, angle float64) bool {
		if math.IsNaN(angle) || math.IsInf(angle, 0) {
			return true
		}
		k := GateKind(int(kind) % 14)
		var g Gate
		switch k {
		case RX, RY, RZ:
			g = NewRot(k, 0, angle)
		case CZ, CNOT, SWAP:
			g = NewGate2(k, 0, 1)
		default:
			g = NewGate1(k, 0)
		}
		inv2 := g.Inverse().Inverse()
		return inv2.Kind == g.Kind && inv2.Angle == g.Angle && inv2.Qubits == g.Qubits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGateDurations(t *testing.T) {
	if NewGate1(X, 0).Kind.Duration() != Gate1QTime {
		t.Fatal("1q duration wrong")
	}
	if NewGate2(CZ, 0, 1).Kind.Duration() != Gate2QTime {
		t.Fatal("CZ duration wrong")
	}
	if NewRot(RZ, 0, 1).Kind.Duration() != 0 {
		t.Fatal("virtual RZ should be free")
	}
	if NewGate2(SWAP, 0, 1).Kind.Duration() != 3*Gate2QTime {
		t.Fatal("SWAP duration wrong")
	}
}

func TestCircuitAddValidation(t *testing.T) {
	c := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range qubit did not panic")
		}
	}()
	c.AddGate(NewGate1(X, 5))
}

func TestCountGatesIncludesBranches(t *testing.T) {
	c := New(3)
	c.AddGate(NewGate1(H, 0))
	c.AddFeedback(&Feedback{
		Qubit: 0,
		OnOne: Gates(NewGate1(X, 1), NewGate1(Z, 1)),
	})
	if n := c.CountGates(); n != 3 {
		t.Fatalf("CountGates = %d, want 3", n)
	}
}

func TestDAGDependencies(t *testing.T) {
	c := New(3)
	c.AddGate(NewGate1(H, 0))       // 0
	c.AddGate(NewGate2(CZ, 0, 1))   // 1 depends on 0
	c.AddGate(NewGate1(X, 2))       // 2 independent
	c.AddGate(NewGate2(CNOT, 1, 2)) // 3 depends on 1 and 2
	d := BuildDAG(c)
	if len(d.Pred[0]) != 0 || len(d.Pred[2]) != 0 {
		t.Fatal("roots have predecessors")
	}
	if len(d.Pred[1]) != 1 || d.Pred[1][0] != 0 {
		t.Fatalf("instruction 1 preds = %v", d.Pred[1])
	}
	if len(d.Pred[3]) != 2 {
		t.Fatalf("instruction 3 preds = %v", d.Pred[3])
	}
	// ASAP times: H ends at 30; CZ 30..90; X 0..30; CNOT 90..150.
	if d.Start[3] != 90 || d.End[3] != 150 {
		t.Fatalf("instruction 3 scheduled [%v,%v]", d.Start[3], d.End[3])
	}
	if got := d.Depth(); got != 150 {
		t.Fatalf("Depth = %v, want 150", got)
	}
}

func TestDAGNoDuplicateEdgeFor2QPair(t *testing.T) {
	c := New(2)
	c.AddGate(NewGate2(CZ, 0, 1))
	c.AddGate(NewGate2(CZ, 0, 1))
	d := BuildDAG(c)
	if len(d.Pred[1]) != 1 {
		t.Fatalf("duplicate dependency edges: %v", d.Pred[1])
	}
}

func mkFB(readQ int, onOne, onZero []Instruction) (*Circuit, *Feedback) {
	c := New(4)
	fb := &Feedback{Qubit: readQ, OnOne: onOne, OnZero: onZero}
	c.AddFeedback(fb)
	return c, fb
}

func TestCase1Classification(t *testing.T) {
	// X gate on another qubit: case 1 (QEC data-qubit correction pattern).
	c, _ := mkFB(1, Gates(NewGate1(X, 2)), nil)
	a := AnalyzeSite(c, 0)
	if a.Case != Case1Independent {
		t.Fatalf("case = %v, want case1", a.Case)
	}
	if !a.Case.PreExecutable() || a.FloorAtReadoutEnd || a.NeedsAncilla {
		t.Fatal("case1 flags wrong")
	}
	if len(a.RecoveryOnOne) != 1 || a.RecoveryOnOne[0].Gate.Kind != X {
		t.Fatalf("recovery = %v", a.RecoveryOnOne)
	}
}

func TestCase2Classification(t *testing.T) {
	// Two-qubit gate involving the read qubit: case 2 (ancilla).
	c, _ := mkFB(1, Gates(NewGate2(CNOT, 1, 2)), nil)
	a := AnalyzeSite(c, 0)
	if a.Case != Case2Ancilla {
		t.Fatalf("case = %v, want case2", a.Case)
	}
	if !a.NeedsAncilla {
		t.Fatal("case2 must need ancilla")
	}
}

func TestCase3Classification(t *testing.T) {
	// Reset-style X on the read qubit: case 3.
	c, _ := mkFB(1, Gates(NewGate1(X, 1)), nil)
	a := AnalyzeSite(c, 0)
	if a.Case != Case3ReadQubit {
		t.Fatalf("case = %v, want case3", a.Case)
	}
	if !a.FloorAtReadoutEnd {
		t.Fatal("case3 must floor at readout end")
	}
}

func TestCase4Classification(t *testing.T) {
	// Measurement in the branch: case 4, never pre-executable.
	c, _ := mkFB(1, []Instruction{{Kind: OpMeasure, Qubit: 2}}, nil)
	a := AnalyzeSite(c, 0)
	if a.Case != Case4Irreversible {
		t.Fatalf("case = %v, want case4", a.Case)
	}
	if a.Case.PreExecutable() {
		t.Fatal("case4 must not be pre-executable")
	}
	if a.RecoveryOnOne != nil {
		t.Fatal("case4 must have no recovery program")
	}
}

func TestCase3TakesPrecedenceOverCase2(t *testing.T) {
	// Branch with both a 1q gate on the read qubit and a 2q gate through it:
	// the stricter case 3 wins.
	c, _ := mkFB(1, Gates(NewGate1(X, 1), NewGate2(CZ, 1, 2)), nil)
	a := AnalyzeSite(c, 0)
	if a.Case != Case3ReadQubit {
		t.Fatalf("case = %v, want case3", a.Case)
	}
}

func TestAnalyzeAll(t *testing.T) {
	c := New(4)
	c.AddFeedback(&Feedback{Qubit: 0, OnOne: Gates(NewGate1(X, 1))})
	c.AddGate(NewGate1(H, 2))
	c.AddFeedback(&Feedback{Qubit: 2, OnOne: Gates(NewGate1(X, 2))})
	all := AnalyzeAll(c)
	if len(all) != 2 {
		t.Fatalf("found %d sites, want 2", len(all))
	}
	if all[0].Case != Case1Independent || all[1].Case != Case3ReadQubit {
		t.Fatalf("cases = %v, %v", all[0].Case, all[1].Case)
	}
}

func TestRecoveryProgram(t *testing.T) {
	onOne := Gates(NewRot(RX, 2, 0.5), NewGate1(H, 2))
	onZero := Gates(NewGate1(Z, 3))
	c, fb := mkFB(1, onOne, onZero)
	a := AnalyzeSite(c, 0)
	rec := a.RecoveryProgram(fb, 1) // predicted 1 but outcome was 0
	// Expect: H, RX(-0.5), then Z q3.
	if len(rec) != 3 {
		t.Fatalf("recovery length %d, want 3", len(rec))
	}
	if rec[0].Gate.Kind != H || rec[1].Gate.Kind != RX || rec[1].Gate.Angle != -0.5 {
		t.Fatalf("undo sequence wrong: %v %v", rec[0].Gate, rec[1].Gate)
	}
	if rec[2].Gate.Kind != Z {
		t.Fatalf("correct branch missing: %v", rec[2].Gate)
	}
}

func TestInverseOfPanicsOnIrreversible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InverseOf(measure) did not panic")
		}
	}()
	InverseOf([]Instruction{{Kind: OpMeasure, Qubit: 0}})
}

// TestPreExecutionEquivalence numerically checks the Appendix theorem:
// pre-executing a (case-1) branch body during the readout, then recovering
// on a misprediction with RecoveryProgram, produces exactly the state of
// the conventional measure-then-branch execution. Both branch bodies are
// random, so the undo of either one is checked against the state vector.
func TestPreExecutionEquivalence(t *testing.T) {
	f := func(seed uint64, predictBit bool) bool {
		rng := stats.NewRNG(seed)
		// Random branch bodies acting on qubits {1,2} (read qubit is 0).
		randomBody := func() []Instruction {
			var body []Instruction
			nGates := 1 + rng.Intn(5)
			for i := 0; i < nGates; i++ {
				q := 1 + rng.Intn(2)
				switch rng.Intn(4) {
				case 0:
					body = append(body, Gates(NewRot(RX, q, rng.Float64()*2))...)
				case 1:
					body = append(body, Gates(NewRot(RY, q, rng.Float64()*2))...)
				case 2:
					body = append(body, Gates(NewGate1(H, q))...)
				default:
					body = append(body, Gates(NewGate2(CZ, 1, 2))...)
				}
			}
			return body
		}
		fb := &Feedback{Qubit: 0, OnOne: randomBody(), OnZero: randomBody()}
		c := New(3)
		c.AddFeedback(fb)
		a := AnalyzeSite(c, 0)
		if a.Case != Case1Independent {
			return true // only testing case-1 equivalence here
		}

		prep := func() *quantum.State {
			s := quantum.NewState(3)
			r := stats.NewRNG(seed + 999)
			s.RY(0, r.Float64()*math.Pi)
			s.RY(1, r.Float64()*math.Pi)
			s.RY(2, r.Float64()*math.Pi)
			s.CZ(0, 1)
			s.CZ(1, 2)
			return s
		}
		apply := func(s *quantum.State, body []Instruction) {
			for _, in := range body {
				in.Gate.Apply(s)
			}
		}

		// Conventional: measure, then branch.
		sA := prep()
		rA := stats.NewRNG(seed + 7)
		m := sA.Measure(0, rA)
		apply(sA, bodyFor(fb, m))

		// Pre-execution: apply predicted branch, measure, recover if wrong.
		predicted := 0
		if predictBit {
			predicted = 1
		}
		sB := prep()
		rB := stats.NewRNG(seed + 7) // same measurement randomness
		apply(sB, bodyFor(fb, predicted))
		mB := sB.Measure(0, rB)
		if mB != m {
			return false // branch gates must not disturb the readout statistics
		}
		if mB != predicted {
			apply(sB, a.RecoveryProgram(fb, predicted))
		}
		return math.Abs(sA.Fidelity(sB)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bodyFor returns the branch body fb runs on outcome m.
func bodyFor(fb *Feedback, m int) []Instruction {
	if m == 1 {
		return fb.OnOne
	}
	return fb.OnZero
}

func TestBodyDuration(t *testing.T) {
	body := Gates(NewGate1(X, 0), NewGate2(CZ, 0, 1), NewRot(RZ, 0, 1))
	if d := BodyDuration(body); d != 90 {
		t.Fatalf("BodyDuration = %v, want 90", d)
	}
}

func TestFeedbackSites(t *testing.T) {
	c := New(2)
	c.AddGate(NewGate1(H, 0))
	c.AddFeedback(&Feedback{Qubit: 0})
	c.AddGate(NewGate1(X, 1))
	c.AddFeedback(&Feedback{Qubit: 1})
	sites := c.FeedbackSites()
	if len(sites) != 2 || sites[0] != 1 || sites[1] != 3 {
		t.Fatalf("sites = %v", sites)
	}
}

func TestInstructionQubitListFeedback(t *testing.T) {
	fb := &Feedback{Qubit: 0, OnOne: Gates(NewGate1(X, 2)), OnZero: Gates(NewGate2(CZ, 1, 3))}
	in := Instruction{Kind: OpFeedback, Feedback: fb}
	qs := in.QubitList()
	set := map[int]bool{}
	for _, q := range qs {
		set[q] = true
	}
	for _, want := range []int{0, 1, 2, 3} {
		if !set[want] {
			t.Fatalf("qubit %d missing from %v", want, qs)
		}
	}
}

func TestAngleEq(t *testing.T) {
	if !AngleEq(0, 2*math.Pi, 1e-9) {
		t.Fatal("0 != 2π mod 2π")
	}
	if AngleEq(0, math.Pi, 1e-9) {
		t.Fatal("0 == π unexpectedly")
	}
}

// Depth returns the ASAP makespan of the circuit in ns.
func (d *DAG) Depth() float64 {
	m := 0.0
	for _, e := range d.End {
		if e > m {
			m = e
		}
	}
	return m
}

// RecoveryProgram returns the full correction sequence executed after a
// misprediction at the analyzed site: the inverse of the pre-executed
// (predicted) branch followed by the correct branch.
func (a *SiteAnalysis) RecoveryProgram(fb *Feedback, predicted int) []Instruction {
	if a.Case == Case4Irreversible {
		panic("circuit: RecoveryProgram for irreversible site")
	}
	var undo, correct []Instruction
	if predicted == 1 {
		undo = a.RecoveryOnOne
		correct = fb.OnZero
	} else {
		undo = a.RecoveryOnZero
		correct = fb.OnOne
	}
	out := make([]Instruction, 0, len(undo)+len(correct))
	out = append(out, undo...)
	out = append(out, correct...)
	return out
}
