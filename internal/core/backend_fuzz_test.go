package core

import (
	"math"
	"reflect"
	"testing"

	"artery/internal/circuit"
	"artery/internal/quantum"
	"artery/internal/workload"
)

// cliffordFuzzGates is the Clifford alphabet the backend fuzzer draws
// from: the fixed single-qubit Cliffords plus the exact-angle rotations
// (the decomposition table of circuit.ApplyCliffordGate).
var cliffordFuzzGates = []func(q int) circuit.Gate{
	func(q int) circuit.Gate { return circuit.NewGate1(circuit.X, q) },
	func(q int) circuit.Gate { return circuit.NewGate1(circuit.Y, q) },
	func(q int) circuit.Gate { return circuit.NewGate1(circuit.Z, q) },
	func(q int) circuit.Gate { return circuit.NewGate1(circuit.H, q) },
	func(q int) circuit.Gate { return circuit.NewGate1(circuit.S, q) },
	func(q int) circuit.Gate { return circuit.NewGate1(circuit.Sdg, q) },
	func(q int) circuit.Gate { return circuit.NewRot(circuit.RX, q, math.Pi/2) },
	func(q int) circuit.Gate { return circuit.NewRot(circuit.RX, q, -math.Pi/2) },
	func(q int) circuit.Gate { return circuit.NewRot(circuit.RY, q, math.Pi/2) },
	func(q int) circuit.Gate { return circuit.NewRot(circuit.RY, q, -math.Pi/2) },
	func(q int) circuit.Gate { return circuit.NewRot(circuit.RZ, q, math.Pi) },
	func(q int) circuit.Gate { return circuit.NewRot(circuit.RX, q, math.Pi) },
}

// buildCliffordDynamic decodes fuzz bytes into a dynamic Clifford
// workload on nq qubits: unitary gates, mid-circuit measurements,
// resets, and feedback sites with reversible single-gate branch bodies.
// Returns nil when the bytes decode to an empty or site-free circuit
// (the interesting differential surface is the dynamic repertoire).
func buildCliffordDynamic(data []byte, nq int) *workload.Workload {
	c := circuit.New(nq)
	var priors []float64
	for i := 0; i+1 < len(data) && len(c.Ins) < 48; i += 2 {
		sel := int(data[i]) % (len(cliffordFuzzGates) + 5)
		q := int(data[i+1]) % nq
		switch {
		case sel < len(cliffordFuzzGates):
			c.AddGate(cliffordFuzzGates[sel](q))
		case sel == len(cliffordFuzzGates):
			q2 := (q + 1 + int(data[i+1]/7)%(nq-1)) % nq
			c.AddGate(circuit.NewGate2(circuit.CNOT, q, q2))
		case sel == len(cliffordFuzzGates)+1:
			q2 := (q + 1 + int(data[i+1]/5)%(nq-1)) % nq
			c.AddGate(circuit.NewGate2(circuit.CZ, q, q2))
		case sel == len(cliffordFuzzGates)+2:
			c.AddMeasure(q)
		case sel == len(cliffordFuzzGates)+3:
			c.AddReset(q)
		default:
			tgt := (q + 1) % nq
			fb := &circuit.Feedback{Qubit: q,
				OnOne: circuit.Gates(circuit.NewGate1(circuit.X, tgt))}
			if data[i+1]%2 == 1 {
				fb.OnZero = circuit.Gates(circuit.NewGate1(circuit.Z, tgt))
			}
			c.AddFeedback(fb)
			// Priors spread over (0,1) so the predictor sees varied skew.
			priors = append(priors, float64(int(data[i+1])%9+1)/10)
		}
	}
	if len(c.Ins) == 0 || len(priors) == 0 {
		return nil
	}
	return &workload.Workload{Name: "fuzz", Circuit: c, SiteP1: priors}
}

// FuzzBackendVsStateVector drives random dynamic Clifford circuits —
// gates, mid-circuit measurement, reset, feedback with reversible
// bodies — through both backends and requires identical measurement
// records and controller outcomes. It is the generative counterpart of
// TestBackendDifferential's fixed workload sweep (`make fuzz-smoke`).
func FuzzBackendVsStateVector(f *testing.F) {
	f.Add([]byte{16, 0, 3, 1, 12, 0, 16, 1, 0, 0}, uint64(1))
	f.Add([]byte{6, 0, 13, 1, 16, 2, 14, 0, 15, 1, 16, 2}, uint64(7))
	f.Add([]byte{9, 3, 12, 4, 16, 0, 16, 1, 16, 2, 16, 3, 16, 4}, uint64(3))
	// A reset, then noisy measurements whose assignment flips expose a
	// register that skips the ideal reference's Reset draw.
	f.Add([]byte("10000000000000000020"), uint64(2))
	noise := cliffordSafeNoise()
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		const nq = 5
		wl := buildCliffordDynamic(data, nq)
		if wl == nil {
			return
		}
		if err := ValidateWorkload(wl); err != nil {
			t.Skip() // degenerate decode
		}
		shots := 3
		run := func(kind quantum.BackendKind) (RunResult, []shotRecord) {
			e := qubicEngine()
			e.Noise = noise
			e.Workers = 1
			return runRecorded(e, kind, wl, shots, seed)
		}
		rs, ss := run(quantum.BackendState)
		rt, st := run(quantum.BackendStabilizer)
		if rs.MeanLatencyNs != rt.MeanLatencyNs {
			t.Fatalf("latency diverged: %v vs %v", rs.MeanLatencyNs, rt.MeanLatencyNs)
		}
		for i := range ss {
			if !reflect.DeepEqual(ss[i].Measurements, st[i].Measurements) {
				t.Fatalf("shot %d measurements diverged\n  state:      %v\n  stabilizer: %v\n  circuit: %d ins",
					i, ss[i].Measurements, st[i].Measurements, len(wl.Circuit.Ins))
			}
			if ss[i].Outcomes != st[i].Outcomes {
				t.Fatalf("shot %d outcomes diverged\n  state:      %s\n  stabilizer: %s",
					i, ss[i].Outcomes, st[i].Outcomes)
			}
		}
	})
}
