package interconnect

import (
	"math"
	"testing"
	"testing/quick"

	"artery/internal/trace"
)

func TestPaperTopologyShape(t *testing.T) {
	top := PaperTopology()
	if top.NumFPGAs() != 3 {
		t.Fatalf("NumFPGAs = %d, want 3 (18 qubits / 6 per FPGA)", top.NumFPGAs())
	}
	if top.NumBackplanes() != 2 {
		t.Fatalf("NumBackplanes = %d, want 2", top.NumBackplanes())
	}
}

func TestFPGAAssignment(t *testing.T) {
	top := PaperTopology()
	if top.FPGAOf(0) != 0 || top.FPGAOf(5) != 0 {
		t.Fatal("qubits 0-5 should be on FPGA 0")
	}
	if top.FPGAOf(6) != 1 || top.FPGAOf(17) != 2 {
		t.Fatal("FPGA assignment wrong")
	}
	if top.BackplaneOf(0) != 0 || top.BackplaneOf(1) != 0 || top.BackplaneOf(2) != 1 {
		t.Fatal("backplane assignment wrong")
	}
}

func TestRouteLevels(t *testing.T) {
	top := PaperTopology()
	if l := top.RouteLevel(0, 3); l != LevelOnChip {
		t.Fatalf("same-FPGA level = %v", l)
	}
	if l := top.RouteLevel(0, 7); l != LevelBackplane {
		t.Fatalf("same-backplane level = %v", l)
	}
	if l := top.RouteLevel(0, 13); l != LevelInterBackplane {
		t.Fatalf("cross-backplane level = %v", l)
	}
}

func TestLatencyHierarchy(t *testing.T) {
	top := PaperTopology()
	l1 := top.Latency(0, 1)
	l2 := top.Latency(0, 7)
	l3 := top.Latency(0, 13)
	if !(l1 < l2 && l2 < l3) {
		t.Fatalf("latency hierarchy violated: %v %v %v", l1, l2, l3)
	}
	if l1 != OnChipLatencyNs {
		t.Fatalf("on-chip latency %v", l1)
	}
	if l2 != 96 {
		t.Fatalf("backplane latency %v, want 96 (2 serdes hops)", l2)
	}
}

func TestLatencySymmetric(t *testing.T) {
	top := PaperTopology()
	f := func(a, b uint8) bool {
		qa, qb := int(a)%18, int(b)%18
		return top.Latency(qa, qb) == top.Latency(qb, qa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstCaseLatency(t *testing.T) {
	top := PaperTopology()
	w := top.WorstCaseLatency()
	if w != top.Latency(0, 13) {
		t.Fatalf("worst case %v != cross-backplane latency", w)
	}
}

func TestHierarchyBeatsFlat(t *testing.T) {
	// The layered design must never be slower than a flat shared bus, and
	// strictly faster for same-backplane traffic on multi-backplane systems.
	top := NewTopology(48, 6, 2) // 8 FPGAs, 4 backplanes
	for a := 0; a < 48; a += 5 {
		for b := 0; b < 48; b += 7 {
			if top.Latency(a, b) > top.FlatLatency(a, b) {
				t.Fatalf("hierarchy slower than flat for (%d,%d)", a, b)
			}
		}
	}
	if !(top.Latency(0, 7) < top.FlatLatency(0, 7)) {
		t.Fatal("same-backplane path not faster than flat bus")
	}
}

func TestScalesToLargerSystems(t *testing.T) {
	top := NewTopology(512, 8, 4)
	if top.NumFPGAs() != 64 || top.NumBackplanes() != 16 {
		t.Fatalf("scaling: %d FPGAs, %d backplanes", top.NumFPGAs(), top.NumBackplanes())
	}
	// Level-3 latency is constant regardless of system size (point-to-point
	// layered routing), unlike the flat bus.
	if top.Latency(0, 511) != PaperTopology().Latency(0, 13) {
		t.Fatal("level-3 latency should not grow with system size")
	}
	if top.FlatLatency(0, 511) <= top.Latency(0, 511) {
		t.Fatal("flat bus should degrade on large systems")
	}
}

func TestTopologyPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewTopology(0, 1, 1) },
		func() { NewTopology(1, 0, 1) },
		func() { PaperTopology().FPGAOf(18) },
		func() { PaperTopology().Latency(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLevelString(t *testing.T) {
	if LevelOnChip.String() != "on-chip" || Level(9).String() == "" {
		t.Fatal("Level.String broken")
	}
}

func TestMessageHops(t *testing.T) {
	top := PaperTopology() // 6 qubits/FPGA, 2 FPGAs/backplane
	cases := []struct {
		src, dst, hops int
	}{
		{0, 5, 0},  // same FPGA: fabric wires, no message framing
		{0, 0, 0},  // self
		{0, 6, 2},  // same backplane, different FPGA: two serdes hops
		{0, 12, 3}, // across backplanes: serdes + crossbar + serdes
		{17, 0, 3}, // symmetric
	}
	for _, c := range cases {
		if got := top.MessageHops(c.src, c.dst); got != c.hops {
			t.Errorf("MessageHops(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestRetryPenaltyNs(t *testing.T) {
	top := PaperTopology()
	if got := top.RetryPenaltyNs(0, 12, 0, 16); got != 0 {
		t.Fatalf("zero retries cost %v ns", got)
	}
	transit := top.Latency(0, 12)
	// One retry: one backoff + one fresh transit.
	if got, want := top.RetryPenaltyNs(0, 12, 1, 16), 16+transit; got != want {
		t.Fatalf("1 retry = %v, want %v", got, want)
	}
	// Three retries: backoff doubles 16+32+64, plus three transits.
	if got, want := top.RetryPenaltyNs(0, 12, 3, 16), 16+32+64+3*transit; got != want {
		t.Fatalf("3 retries = %v, want %v", got, want)
	}
	// Penalty is monotone in retries.
	prev := 0.0
	for r := 1; r <= 6; r++ {
		p := top.RetryPenaltyNs(0, 6, r, 16)
		if p <= prev {
			t.Fatalf("penalty not monotone at %d retries: %v <= %v", r, p, prev)
		}
		prev = p
	}
}

// TestRecordHopsSumToLatency checks the trace view of routing on every
// qubit pair: one StageHop annotation per segment, numbered in order,
// tagged with the route level, contiguous from 0, and summing to
// Latency(src, dst).
func TestRecordHopsSumToLatency(t *testing.T) {
	top := NewTopology(24, 6, 2) // three levels, with a partly filled backplane
	wantSegments := map[Level]int{LevelOnChip: 1, LevelBackplane: 2, LevelInterBackplane: 4}
	rec := trace.NewRecorder(0)
	for src := 0; src < top.NumQubits; src++ {
		for dst := 0; dst < top.NumQubits; dst++ {
			rec.Reset()
			span := rec.Shot(src)
			top.RecordHops(span, src, dst)
			rec.Commit(span)
			evs := rec.Events()
			level := top.RouteLevel(src, dst)
			if len(evs) != wantSegments[level] {
				t.Fatalf("%d->%d (%v): %d hop events, want %d", src, dst, level, len(evs), wantSegments[level])
			}
			at := 0.0
			for i, e := range evs {
				if e.Stage != trace.StageHop || e.Stage.Additive() {
					t.Fatalf("%d->%d hop %d: stage %v, want a %v annotation", src, dst, i, e.Stage, trace.StageHop)
				}
				if e.StartNs != at || e.Value != float64(i) || int(e.Outcome) != int(level) {
					t.Fatalf("%d->%d hop %d: %+v (want start %v, index %d, level %d)", src, dst, i, e, at, i, level)
				}
				at = e.EndNs
			}
			if want := top.Latency(src, dst); math.Abs(at-want) > 1e-9 {
				t.Fatalf("%d->%d: hops end at %v, Latency = %v", src, dst, at, want)
			}
		}
	}
	top.RecordHops(nil, 0, 23) // tracing off: a no-op
}
