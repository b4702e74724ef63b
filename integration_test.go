package artery

// integration_test.go drives the full stack end to end, crossing every
// subsystem boundary in one scenario per test — the documentation-grade
// checks a downstream user would write first.

import (
	"math"
	"strings"
	"testing"

	"artery/internal/circuit"
	"artery/internal/pulse"
)

// TestIntegrationPredictCompileCompressRun walks one workload through
// serialization, pulse compilation, compression and execution.
func TestIntegrationPredictCompileCompressRun(t *testing.T) {
	wl := RCNOT(2)

	// 1. The circuit round-trips through the QASM dialect.
	qasm := circuit.WriteQASM(wl.Circuit)
	parsed, err := circuit.ParseQASM(qasm)
	if err != nil {
		t.Fatalf("qasm round trip: %v", err)
	}
	if len(parsed.Ins) != len(wl.Circuit.Ins) {
		t.Fatal("qasm round trip changed instruction count")
	}

	// 2. Pre-execution analysis classifies its sites as case 1.
	for _, a := range circuit.AnalyzeAll(parsed) {
		if !a.Case.PreExecutable() {
			t.Fatalf("site unexpectedly not pre-executable: %v", a.Case)
		}
	}

	// 3. Its control pulses compile and compress within the on-chip budget.
	lib := pulse.BuildLibrary(parsed, pulse.CombinedCodec{})
	if lib.Len() == 0 || lib.StoredBytes() > 1_400_000 {
		t.Fatalf("pulse library: %d entries, %d bytes", lib.Len(), lib.StoredBytes())
	}
	streams := pulse.CompileCircuit(parsed)
	rep := pulse.AnalyzeSampling(pulse.CombinedCodec{}, streams)
	if rep.DACsPerFPGA <= 4 {
		t.Fatalf("compression did not raise DAC density: %d", rep.DACsPerFPGA)
	}

	// 4. The system executes it faster than the conventional baseline with
	//    high prediction accuracy and a real fidelity number.
	sys := MustNew(WithSeed(77))
	a := sys.Run(wl, 40)
	q := sys.RunWith("QubiC", wl, 40)
	if a.MeanLatencyUs >= q.MeanLatencyUs {
		t.Fatalf("ARTERY %v µs not faster than QubiC %v µs", a.MeanLatencyUs, q.MeanLatencyUs)
	}
	if a.Accuracy < 0.8 {
		t.Fatalf("prediction accuracy %v", a.Accuracy)
	}
	if math.IsNaN(a.Fidelity) {
		t.Fatal("fidelity missing")
	}
}

// TestIntegrationQECPipelineEndToEnd runs the QEC story end to end:
// feedback latency from the controller model feeds the memory simulation,
// and the latency advantage becomes a logical-error advantage.
func TestIntegrationQECPipelineEndToEnd(t *testing.T) {
	sys := MustNew(WithSeed(9), WithoutStateSim())
	wl := QEC(1)
	a := sys.Run(wl, 30)
	q := sys.RunWith("QubiC", wl, 30)
	if a.MeanLatencyUs >= q.MeanLatencyUs {
		t.Fatalf("QEC cycle latency: ARTERY %v vs QubiC %v", a.MeanLatencyUs, q.MeanLatencyUs)
	}
	// Latency → idle error → LER, with the exposure asymmetry.
	pA := CyclePData(2.31, 1.0)
	pQ := CyclePData(2.45, 1.9)
	lerA := LogicalErrorRate(15, 2500, pA, 0.01, 10)
	lerQ := LogicalErrorRate(15, 2500, pQ, 0.01, 11)
	if lerA >= lerQ {
		t.Fatalf("LER advantage lost: ARTERY %v vs QubiC %v", lerA, lerQ)
	}
	// And it survives the circuit-level simulation.
	clA := CircuitLevelLogicalErrorRate(3, 10, 1200, 0.003, 0.01, pA, 12)
	clQ := CircuitLevelLogicalErrorRate(3, 10, 1200, 0.003, 0.01, pQ, 13)
	if clA >= clQ {
		t.Fatalf("circuit-level LER advantage lost: %v vs %v", clA, clQ)
	}
}

// TestIntegrationTimelineMatchesEngineIdling ties the static timeline to
// the dynamic execution: the feedback span the timeline reports is the
// window the engine idles through.
func TestIntegrationTimelineMatchesEngineIdling(t *testing.T) {
	wl := QRW(1)
	tl := circuit.BuildTimeline(wl.Circuit)
	// The coin's feedback readout spans 2 µs.
	var fbSpan *circuit.Span
	for i := range tl.Spans[0] {
		if tl.Spans[0][i].Feedback {
			fbSpan = &tl.Spans[0][i]
		}
	}
	if fbSpan == nil || fbSpan.EndNs-fbSpan.StartNs != 2000 {
		t.Fatalf("feedback span wrong: %+v", fbSpan)
	}
	// The rendered timeline shows the feedback marker.
	if !strings.Contains(tl.Render(100), "~") {
		t.Fatal("timeline render missing feedback span")
	}
}
