package artery

import (
	"math"
	"strings"
	"testing"
)

// one shared system: calibration is the expensive step.
var sys = MustNew(WithSeed(7), WithoutStateSim())

func TestNewDefaults(t *testing.T) {
	s := MustNew()
	if s.opts.Seed != 1 || s.opts.WindowNs != 30 || s.opts.HistoryDepth != 6 || s.opts.Theta != 0.91 {
		t.Fatalf("defaults wrong: %+v", s.opts)
	}
}

func TestRunProducesReport(t *testing.T) {
	r := sys.Run(QRW(2), 30)
	if r.Controller != "ARTERY" || r.Shots != 30 {
		t.Fatalf("report metadata wrong: %+v", r)
	}
	if r.MeanLatencyUs <= 0 {
		t.Fatal("no latency")
	}
	if r.Accuracy < 0.8 {
		t.Fatalf("accuracy %v", r.Accuracy)
	}
	if !math.IsNaN(r.Fidelity) {
		t.Fatal("fidelity should be NaN with state sim disabled")
	}
}

func TestCompareCoversAllControllers(t *testing.T) {
	reports := sys.Compare(RCNOT(1), 20)
	if len(reports) != 5 {
		t.Fatalf("%d reports", len(reports))
	}
	names := map[string]bool{}
	for _, r := range reports {
		names[r.Controller] = true
	}
	for _, want := range ControllerNames() {
		if !names[want] {
			t.Fatalf("missing controller %s", want)
		}
	}
	// ARTERY (index 0) must be the fastest.
	for _, r := range reports[1:] {
		if reports[0].MeanLatencyUs >= r.MeanLatencyUs {
			t.Fatalf("ARTERY (%v) not faster than %s (%v)",
				reports[0].MeanLatencyUs, r.Controller, r.MeanLatencyUs)
		}
	}
}

func TestRunWithUnknownControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown controller accepted")
		}
	}()
	sys.RunWith("nope", QRW(1), 1)
}

func TestPredictShotTrace(t *testing.T) {
	tr := sys.PredictShot(1, 0.9)
	if len(tr.Posterior) == 0 {
		t.Fatal("empty posterior trace")
	}
	if tr.TimeUs <= 0 || tr.TimeUs > 2.0 {
		t.Fatalf("decision time %v µs out of range", tr.TimeUs)
	}
	for _, pt := range tr.Posterior {
		if pt[1] < 0 || pt[1] > 1 {
			t.Fatalf("posterior %v out of [0,1]", pt[1])
		}
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, wl := range []*Workload{
		QRW(3), RCNOT(2), DQT(2), RUSQNN(2), Reset(3), Random(25, 1), QEC(1),
	} {
		if err := wl.Validate(); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{Workload: "QRW-5", Controller: "ARTERY", MeanLatencyUs: 6.1, Accuracy: 0.93, CommitRate: 0.9, Fidelity: 0.88}
	s := r.String()
	if !strings.Contains(s, "QRW-5") || !strings.Contains(s, "ARTERY") {
		t.Fatalf("report string %q", s)
	}
}

func TestFidelityAvailableWithStateSim(t *testing.T) {
	s := MustNew(WithSeed(11))
	r := s.Run(QRW(2), 10)
	if math.IsNaN(r.Fidelity) || r.Fidelity <= 0 {
		t.Fatalf("fidelity %v", r.Fidelity)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a := MustNew(WithSeed(3), WithoutStateSim()).Run(QRW(2), 20)
	b := MustNew(WithSeed(3), WithoutStateSim()).Run(QRW(2), 20)
	if a.MeanLatencyUs != b.MeanLatencyUs || a.Accuracy != b.Accuracy {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestModeAblationAffectsLatency(t *testing.T) {
	// Trajectory-only must be slower than combined on a skewed workload
	// (Figure 14's direction). 200 shots keeps the gap well clear of
	// Monte-Carlo noise across seeds.
	comb := MustNew(WithSeed(5), WithoutStateSim())
	traj := MustNew(WithSeed(5), WithMode(ModeTrajectory), WithoutStateSim())
	wl := RCNOT(2)
	rc := comb.Run(wl, 200)
	rt := traj.Run(wl, 200)
	if rc.MeanLatencyUs >= rt.MeanLatencyUs {
		t.Fatalf("combined (%v) not faster than trajectory-only (%v)",
			rc.MeanLatencyUs, rt.MeanLatencyUs)
	}
}

func TestLogicalErrorRateFacade(t *testing.T) {
	// Noiseless memory never fails; noisy memory does.
	if ler := LogicalErrorRate(5, 200, 0, 0, 1); ler != 0 {
		t.Fatalf("noiseless LER %v", ler)
	}
	ler := LogicalErrorRate(10, 800, 0.03, 0.01, 2)
	if ler <= 0 || ler >= 0.6 {
		t.Fatalf("noisy LER %v out of plausible range", ler)
	}
}

func TestCyclePDataMonotone(t *testing.T) {
	fast := CyclePData(2.31, 1.0)
	slow := CyclePData(2.45, 1.9)
	if slow <= fast {
		t.Fatalf("CyclePData not monotone: %v vs %v", fast, slow)
	}
	if fast < 0.004 {
		t.Fatal("gate floor missing")
	}
}

func TestCircuitLevelLogicalErrorRateFacade(t *testing.T) {
	if ler := CircuitLevelLogicalErrorRate(3, 4, 60, 0, 0, 0, 3); ler != 0 {
		t.Fatalf("noiseless circuit-level LER %v", ler)
	}
	ler := CircuitLevelLogicalErrorRate(3, 6, 300, 0.004, 0.01, 0.02, 4)
	if ler <= 0 || ler >= 0.6 {
		t.Fatalf("circuit-level LER %v out of plausible range", ler)
	}
}

func TestTuneThresholdFacade(t *testing.T) {
	theta, latUs, acc, err := sys.TuneThreshold(0.3, 300)
	if err != nil {
		t.Fatal(err)
	}
	if theta <= 0.5 || theta >= 1 {
		t.Fatalf("theta %v", theta)
	}
	if latUs <= 0 || latUs >= 2.16 {
		t.Fatalf("latency %v µs", latUs)
	}
	if acc < 0.85 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestDynamicalDecouplingOption(t *testing.T) {
	// With quasi-static dephasing, the DD option must improve fidelity.
	base := []Option{WithSeed(31), WithQuasiStaticSigma(2e-4)}
	plain, err := New(base...)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := New(append(base, WithDynamicalDecoupling())...)
	if err != nil {
		t.Fatal(err)
	}
	wl := QRW(10)
	fPlain := plain.RunWith("QubiC", wl, 40).Fidelity
	fDD := dd.RunWith("QubiC", wl, 40).Fidelity
	if fDD <= fPlain {
		t.Fatalf("DD option did not help: %v vs %v", fDD, fPlain)
	}
}
