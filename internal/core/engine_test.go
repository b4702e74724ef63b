package core

import (
	"math"
	"testing"

	"artery/internal/controller"
	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/quantum"
	"artery/internal/readout"
	"artery/internal/stats"
	"artery/internal/workload"
)

// shared fixtures: one calibrated channel, reused across tests (channel
// calibration is the expensive step).
var (
	testChannel = readout.NewChannel(readout.DefaultCalibration(), 30, 6, stats.NewRNG(42))
	testTopo    = interconnect.PaperTopology()
)

func arteryEngine() *Engine {
	p := predict.New(predict.DefaultConfig(), testChannel)
	return NewEngine(controller.NewArtery(controller.DefaultUnits(), testTopo, p), testChannel, nil)
}

func qubicEngine() *Engine {
	return NewEngine(controller.NewBaseline("QubiC", controller.QubiCOverheadNs, testTopo), testChannel, nil)
}

func TestBaselineLatencyMatchesTable1FirstColumn(t *testing.T) {
	e := qubicEngine()
	e.SimulateState = false
	rng := stats.NewRNG(1)
	res := e.Run(workload.QRW(1), 20, rng)
	// QubiC QRW step=1: 2.15 µs.
	if math.Abs(res.MeanLatencyNs-2150) > 1e-6 {
		t.Fatalf("QubiC QRW-1 latency %v ns, want 2150", res.MeanLatencyNs)
	}
	res5 := e.Run(workload.QRW(5), 20, rng)
	if math.Abs(res5.MeanLatencyNs-5*2150) > 1e-6 {
		t.Fatalf("QubiC QRW-5 latency %v ns, want %v", res5.MeanLatencyNs, 5*2150)
	}
}

func TestArteryBeatsBaselineOnQRW(t *testing.T) {
	rng := stats.NewRNG(2)
	a := arteryEngine()
	a.SimulateState = false
	q := qubicEngine()
	q.SimulateState = false
	wl := workload.QRW(5)
	ra := a.Run(wl, 60, rng)
	rq := q.Run(wl, 60, rng)
	speedup := rq.MeanLatencyNs / ra.MeanLatencyNs
	if speedup < 1.3 {
		t.Fatalf("ARTERY speedup on QRW-5 is %.2fx, want > 1.3x", speedup)
	}
	if ra.Accuracy < 0.85 {
		t.Fatalf("prediction accuracy %v too low", ra.Accuracy)
	}
}

func TestArteryQECCommitsFast(t *testing.T) {
	// QEC's skewed priors make data-correction decisions far faster than
	// QRW's near-uniform coins. QEC sites alternate correction (even
	// index, case 1) and syndrome reset (odd index, case 3, floored at the
	// readout end), so compare only the correction sites.
	rng := stats.NewRNG(3)
	a := arteryEngine()
	a.SimulateState = false
	var qecCorr stats.RunningMean
	wlQEC := workload.QECCycle(1)
	for s := 0; s < 20; s++ {
		sr := a.RunShot(wlQEC, rng)
		for i, o := range sr.Outcomes {
			if i%2 == 0 {
				qecCorr.Add(o.LatencyNs)
			}
		}
	}

	a2 := arteryEngine()
	a2.SimulateState = false
	qrw := a2.Run(workload.QRW(5), 20, rng)
	if qecCorr.Mean() >= qrw.MeanDecisionNs {
		t.Fatalf("QEC correction latency %v not faster than QRW %v",
			qecCorr.Mean(), qrw.MeanDecisionNs)
	}
	// And far below the readout duration (the paper's ~0.4 µs regime).
	if qecCorr.Mean() > 800 {
		t.Fatalf("QEC correction latency %v ns too slow", qecCorr.Mean())
	}
}

func TestResetFloorsAtReadout(t *testing.T) {
	rng := stats.NewRNG(4)
	a := arteryEngine()
	a.SimulateState = false
	res := a.Run(workload.Reset(1), 40, rng)
	// Case-3: never below the 2 µs readout, but well below QubiC's 2.16 µs
	// when predictions commit.
	if res.MeanDecisionNs < 2000 {
		t.Fatalf("reset mean decision %v below readout floor", res.MeanDecisionNs)
	}
	if res.MeanDecisionNs > 2160 {
		t.Fatalf("reset mean decision %v not better than conventional", res.MeanDecisionNs)
	}
}

func TestFidelityComputedAndBounded(t *testing.T) {
	rng := stats.NewRNG(5)
	a := arteryEngine()
	res := a.Run(workload.QRW(2), 25, rng)
	if math.IsNaN(res.MeanFidelity) {
		t.Fatal("fidelity not computed with state simulation on")
	}
	if res.MeanFidelity <= 0 || res.MeanFidelity > 1+1e-9 {
		t.Fatalf("fidelity %v out of bounds", res.MeanFidelity)
	}
	// Short circuits on calibrated hardware keep high fidelity.
	if res.MeanFidelity < 0.8 {
		t.Fatalf("QRW-2 fidelity %v suspiciously low", res.MeanFidelity)
	}
}

func TestArteryFidelityBeatsSlowBaseline(t *testing.T) {
	// Lower feedback latency ⇒ less idle decoherence ⇒ higher fidelity
	// (Figure 13). Compare against the slowest baseline for signal.
	rng := stats.NewRNG(6)
	a := arteryEngine()
	slow := NewEngine(controller.NewBaseline("Reuer et al.", controller.ReuerOverheadNs, testTopo), testChannel, nil)
	wl := workload.QRW(15)
	fa := a.Run(wl, 40, rng).MeanFidelity
	fs := slow.Run(wl, 40, rng).MeanFidelity
	if fa <= fs {
		t.Fatalf("ARTERY fidelity %v not above slow baseline %v", fa, fs)
	}
}

func TestFidelityDegradesWithCircuitLength(t *testing.T) {
	rng := stats.NewRNG(7)
	e := qubicEngine()
	short := e.Run(workload.QRW(2), 30, rng).MeanFidelity
	long := e.Run(workload.QRW(20), 30, rng).MeanFidelity
	if long >= short {
		t.Fatalf("fidelity did not degrade with length: %v -> %v", short, long)
	}
}

func TestRandomWorkloadIncludesPayload(t *testing.T) {
	rng := stats.NewRNG(8)
	e := qubicEngine()
	e.SimulateState = false
	wl := workload.Random(25, stats.NewRNG(99))
	res := e.Run(wl, 10, rng)
	// Latency = payload + one conventional feedback.
	want := wl.GatePayloadNs + 2150
	if math.Abs(res.MeanLatencyNs-want) > 1e-6 {
		t.Fatalf("random latency %v, want %v", res.MeanLatencyNs, want)
	}
}

func TestTeleportationFidelityIdealNoise(t *testing.T) {
	// With an ideal noise model and perfect-classification channel, DQT
	// must teleport perfectly: fidelity 1 for every shot.
	quiet := readout.DefaultCalibration()
	quiet.NoiseSigma = 0.3 // very clean readout
	quiet.T1Ns = math.Inf(1)
	ch := readout.NewChannel(quiet, 30, 6, stats.NewRNG(50))
	p := predict.New(predict.DefaultConfig(), ch)
	e := NewEngine(controller.NewArtery(controller.DefaultUnits(), testTopo, p), ch, quantum.Ideal())
	rng := stats.NewRNG(9)
	res := e.Run(workload.DQT(2), 20, rng)
	if res.MeanFidelity < 0.999 {
		t.Fatalf("noiseless DQT fidelity %v, want ~1", res.MeanFidelity)
	}
}

func TestLargeRegistersSkipStateSim(t *testing.T) {
	rng := stats.NewRNG(10)
	a := arteryEngine()
	res := a.Run(workload.Reset(25), 5, rng)
	if !math.IsNaN(res.MeanFidelity) {
		t.Fatal("25-qubit register should skip state simulation")
	}
	if res.MeanLatencyNs <= 0 {
		t.Fatal("latency missing")
	}
}

func TestRunPanicsOnInvalidWorkload(t *testing.T) {
	rng := stats.NewRNG(11)
	wl := workload.QRW(2)
	wl.SiteP1 = nil
	defer func() {
		if recover() == nil {
			t.Fatal("invalid workload accepted")
		}
	}()
	arteryEngine().Run(wl, 1, rng)
}

func TestMispredictionChurnReducesFidelity(t *testing.T) {
	// Force frequent mispredictions with a hostile prior and loose
	// thresholds; the recovery gate churn plus the longer latency must cost
	// fidelity relative to well-seeded prediction.
	cfg := predict.Config{Theta: 0.52, Mode: predict.ModeHistory}
	pBad := predict.New(cfg, testChannel)
	bad := controller.NewArtery(controller.DefaultUnits(), testTopo, pBad)
	bad.PriorWeight = 1e6
	eBad := NewEngine(bad, testChannel, nil)

	rng := stats.NewRNG(12)
	wl := workload.QRW(10)
	// Hostile priors: always predict 1 while the coin is 50/50.
	hostile := *wl
	hostile.SiteP1 = append([]float64(nil), wl.SiteP1...)
	for i := range hostile.SiteP1 {
		hostile.SiteP1[i] = 0.999
	}
	resBad := eBad.Run(&hostile, 40, rng)

	good := arteryEngine()
	resGood := good.Run(wl, 40, rng)
	if resBad.Accuracy > 0.75 {
		t.Skipf("hostile prior did not induce mispredictions (acc %v)", resBad.Accuracy)
	}
	if resGood.MeanFidelity <= resBad.MeanFidelity {
		t.Fatalf("misprediction churn did not cost fidelity: good %v <= bad %v",
			resGood.MeanFidelity, resBad.MeanFidelity)
	}
}

func TestCommitRateReported(t *testing.T) {
	rng := stats.NewRNG(13)
	a := arteryEngine()
	a.SimulateState = false
	res := a.Run(workload.RCNOT(3), 30, rng)
	if res.CommitRate <= 0 || res.CommitRate > 1 {
		t.Fatalf("commit rate %v out of range", res.CommitRate)
	}
	q := qubicEngine()
	q.SimulateState = false
	if r := q.Run(workload.RCNOT(3), 10, rng); r.CommitRate != 0 || r.Accuracy != 1 {
		t.Fatalf("baseline commit/accuracy wrong: %+v", r)
	}
}

func TestCase2AncillaWorkloadRuns(t *testing.T) {
	// The case-2 entanglement-swap workload must pre-execute (commit) and
	// pay the ancilla-preparation pulse on top of the case-1 path.
	rng := stats.NewRNG(14)
	a := arteryEngine()
	a.SimulateState = false
	res := a.Run(workload.EntangleSwap(2), 40, rng)
	if res.CommitRate == 0 {
		t.Fatal("case-2 sites never committed")
	}
	if res.MeanLatencyNs <= 0 {
		t.Fatal("no latency recorded")
	}
	// Still far better than the conventional path on average.
	if res.MeanDecisionNs >= 2160 {
		t.Fatalf("case-2 mean decision %v not better than conventional", res.MeanDecisionNs)
	}
}

func TestCase2FidelityComputable(t *testing.T) {
	rng := stats.NewRNG(15)
	a := arteryEngine()
	res := a.Run(workload.EntangleSwap(2), 20, rng)
	if math.IsNaN(res.MeanFidelity) || res.MeanFidelity < 0.5 {
		t.Fatalf("case-2 fidelity %v", res.MeanFidelity)
	}
}

func TestDynamicalDecouplingImprovesFidelity(t *testing.T) {
	// With quasi-static dephasing in the model, enabling DD on idle windows
	// must recover fidelity on a long feedback circuit.
	noise := quantum.DeviceNoise()
	noise.QuasiStaticSigma = 2e-4 // rad/ns, frozen per shot
	mk := func(dd bool) float64 {
		e := NewEngine(controller.NewBaseline("QubiC", controller.QubiCOverheadNs, testTopo), testChannel, noise)
		e.EnableDD = dd
		return e.Run(workload.QRW(10), 40, stats.NewRNG(16)).MeanFidelity
	}
	plain := mk(false)
	dd := mk(true)
	if dd <= plain {
		t.Fatalf("DD did not improve fidelity: %v vs %v", dd, plain)
	}
}
