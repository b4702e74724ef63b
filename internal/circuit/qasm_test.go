package circuit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"artery/internal/stats"
)

func sampleCircuit() *Circuit {
	c := New(3)
	c.AddGate(NewGate1(H, 0))
	c.AddGate(NewRot(RX, 1, math.Pi/2))
	c.AddGate(NewGate2(CZ, 0, 1))
	c.AddFeedback(&Feedback{
		Qubit:  1,
		OnOne:  Gates(NewGate1(X, 2), NewRot(RZ, 2, 1.25)),
		OnZero: nil,
	})
	c.AddMeasure(0)
	c.AddReset(2)
	return c
}

func TestWriteQASMFormat(t *testing.T) {
	s := WriteQASM(sampleCircuit())
	for _, want := range []string{
		"qubits 3", "h q0", "rx(1.5707963", "cz q0, q1",
		"feedback q1 {", "on1: x q2; rz(1.25) q2", "on0: -", "measure q0", "reset q2",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("serialization missing %q:\n%s", want, s)
		}
	}
}

func circuitsEqual(a, b *Circuit) bool {
	if a.NumQubits != b.NumQubits || len(a.Ins) != len(b.Ins) {
		return false
	}
	for i := range a.Ins {
		x, y := a.Ins[i], b.Ins[i]
		if x.Kind != y.Kind {
			return false
		}
		switch x.Kind {
		case OpGate:
			if x.Gate.Kind != y.Gate.Kind || x.Gate.Qubits != y.Gate.Qubits ||
				math.Abs(x.Gate.Angle-y.Gate.Angle) > 1e-9 {
				return false
			}
		case OpMeasure, OpReset:
			if x.Qubit != y.Qubit {
				return false
			}
		case OpFeedback:
			fx, fy := x.Feedback, y.Feedback
			if fx.Qubit != fy.Qubit || len(fx.OnOne) != len(fy.OnOne) || len(fx.OnZero) != len(fy.OnZero) {
				return false
			}
			for k := range fx.OnOne {
				if fx.OnOne[k].Gate != fy.OnOne[k].Gate {
					return false
				}
			}
		}
	}
	return true
}

func TestQASMRoundTrip(t *testing.T) {
	orig := sampleCircuit()
	parsed, err := ParseQASM(WriteQASM(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !circuitsEqual(orig, parsed) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", WriteQASM(orig), WriteQASM(parsed))
	}
}

func TestQASMRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		c := New(4)
		nOps := 1 + rng.Intn(15)
		for i := 0; i < nOps; i++ {
			switch rng.Intn(6) {
			case 0:
				c.AddGate(NewRot(RX, rng.Intn(4), rng.Float64()*6-3))
			case 1:
				c.AddGate(NewGate1(GateKind(3+rng.Intn(8)), rng.Intn(4))) // X..Tdg
			case 2:
				a := rng.Intn(4)
				b := (a + 1 + rng.Intn(3)) % 4
				c.AddGate(NewGate2(CZ, a, b))
			case 3:
				c.AddMeasure(rng.Intn(4))
			case 4:
				c.AddReset(rng.Intn(4))
			default:
				c.AddFeedback(&Feedback{
					Qubit: rng.Intn(4),
					OnOne: Gates(NewGate1(X, rng.Intn(4))),
				})
			}
		}
		parsed, err := ParseQASM(WriteQASM(c))
		return err == nil && circuitsEqual(c, parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// badQASM lists sources ParseQASM must reject.
var badQASM = []string{
	"",                                 // no header
	"qubits 0",                         // bad count
	"qubits 2\nfoo q0",                 // unknown gate
	"qubits 2\nh q5",                   // out of range
	"qubits 2\nh q0, q1",               // wrong arity
	"qubits 2\ncz q0",                  // wrong arity
	"qubits 2\nrx q0",                  // missing angle
	"qubits 2\nh(1.2) q0",              // angle on non-rotation
	"qubits 2\nmeasure x0",             // bad operand
	"qubits 2\nfeedback q0 {",          // unterminated block
	"qubits 2\nrx(zz) q0",              // bad angle literal
	"qubits 2\nfeedback q0 {\noops\n}", // bad branch line
}

func TestParseQASMErrors(t *testing.T) {
	for _, src := range badQASM {
		if _, err := ParseQASM(src); err == nil {
			t.Errorf("ParseQASM accepted %q", src)
		}
	}
}

// FuzzQASMRoundTrip feeds arbitrary text to ParseQASM. The parser must
// never panic, and whatever it accepts must serialize to text that parses
// again and serializes to the same bytes.
func FuzzQASMRoundTrip(f *testing.F) {
	f.Add(WriteQASM(sampleCircuit()))
	for _, src := range badQASM {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseQASM(src)
		if err != nil {
			return
		}
		text := WriteQASM(c)
		back, err := ParseQASM(text)
		if err != nil {
			t.Fatalf("WriteQASM output does not parse: %v\n%s", err, text)
		}
		if again := WriteQASM(back); again != text {
			t.Fatalf("second round trip changed the text:\n%s\nvs\n%s", text, again)
		}
	})
}

func TestParseQASMSkipsCommentsAndBlanks(t *testing.T) {
	src := `
// a comment
qubits 2

// another
h q0

cz q0, q1
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ins) != 2 {
		t.Fatalf("parsed %d instructions", len(c.Ins))
	}
}

func TestQASMPreservesSemantics(t *testing.T) {
	// Parsed circuit must act identically on the simulator.
	orig := sampleCircuit()
	parsed, err := ParseQASM(WriteQASM(orig))
	if err != nil {
		t.Fatal(err)
	}
	d1 := BuildDAG(orig)
	d2 := BuildDAG(parsed)
	if d1.Depth() != d2.Depth() {
		t.Fatalf("depth changed: %v vs %v", d1.Depth(), d2.Depth())
	}
	a1 := AnalyzeAll(orig)
	a2 := AnalyzeAll(parsed)
	if len(a1) != len(a2) || a1[0].Case != a2[0].Case {
		t.Fatal("pre-execution analysis changed across round trip")
	}
}
