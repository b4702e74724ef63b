package predict

import (
	"math"
	"testing"
	"testing/quick"

	"artery/internal/readout"
	"artery/internal/stats"
	"artery/internal/trace"
)

func TestBayesCombineWorkedExample(t *testing.T) {
	// The paper's §4 example: Ph=0.7, Pr=0.95 → P_predict ≈ 0.9779.
	got := BayesCombine(0.7, 0.95)
	want := 0.7 * 0.95 / (0.7*0.95 + 0.3*0.05)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("BayesCombine = %v, want %v", got, want)
	}
	if got < 0.97 || got > 0.99 {
		t.Fatalf("worked example out of expected range: %v", got)
	}
}

func TestBayesCombineNeutralHistory(t *testing.T) {
	// With an uninformative prior the posterior equals the evidence.
	for _, pr := range []float64{0.1, 0.5, 0.9} {
		if got := BayesCombine(0.5, pr); math.Abs(got-pr) > 1e-9 {
			t.Fatalf("BayesCombine(0.5, %v) = %v", pr, got)
		}
	}
}

func TestBayesCombineBoundsProperty(t *testing.T) {
	f := func(a, b float64) bool {
		ph := math.Mod(math.Abs(a), 1)
		pr := math.Mod(math.Abs(b), 1)
		got := BayesCombine(ph, pr)
		return got > 0 && got < 1 && !math.IsNaN(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBayesCombineMonotoneInEvidence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ph := 0.05 + 0.9*rng.Float64()
		p1 := 0.05 + 0.9*rng.Float64()
		p2 := 0.05 + 0.9*rng.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return BayesCombine(ph, p1) <= BayesCombine(ph, p2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBayesCombineExtremesSafe(t *testing.T) {
	for _, v := range []float64{0, 1} {
		got := BayesCombine(v, v)
		if math.IsNaN(got) || got <= 0 || got >= 1 {
			t.Fatalf("BayesCombine(%v,%v) = %v", v, v, got)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{
		{Theta: 0.5},
		{Theta: 1.0},
		{Theta: 0.3},
	} {
		if c.Validate() == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
}

// sharedChannel builds one calibrated channel reused by the heavier tests.
var sharedChannel = func() *readout.Channel {
	return readout.NewChannel(readout.DefaultCalibration(), 30, 6, stats.NewRNG(1000))
}()

func TestPredictorCommitsEarlyWithStrongHistory(t *testing.T) {
	// QEC-like site: history overwhelmingly 0 → commits branch 0 fast.
	p := New(DefaultConfig(), sharedChannel)
	pHist := pHistory(1, 400) // P_history_1 ≈ 0.0025 (paper: < 1% in QEC)
	d := p.Predict(sharedChannel.Read(0, stats.NewRNG(2), nil, nil, nil), pHist, nil)
	if !d.Committed || d.Branch != 0 {
		t.Fatalf("decision = %+v, want committed branch 0", d)
	}
	if d.TimeNs > 200 {
		t.Fatalf("strong-history commit at %v ns, want early (< 200 ns)", d.TimeNs)
	}
}

func TestPredictorUniformHistoryNeedsMoreReadout(t *testing.T) {
	// QRW-like site: 50/50 history → decision driven by the pulse, taking
	// longer than the history-dominated case.
	p := New(DefaultConfig(), sharedChannel)
	pHist := pHistory(200, 200)
	rng := stats.NewRNG(3)
	var early, committed int
	const n = 100
	for i := 0; i < n; i++ {
		d := p.Predict(sharedChannel.Read(i%2, rng, nil, nil, nil), pHist, nil)
		if d.Committed {
			committed++
			if d.TimeNs <= 30 {
				early++
			}
		}
	}
	if committed < n/2 {
		t.Fatalf("only %d/%d committed with uniform history", committed, n)
	}
	if early > n/4 {
		t.Fatalf("%d first-window commits with 50/50 history — too many", early)
	}
}

func TestPredictorAccuracyAboveNinety(t *testing.T) {
	// Headline claim: > 90% prediction accuracy on a balanced workload.
	p := New(DefaultConfig(), sharedChannel)
	rng := stats.NewRNG(4)
	var pulses []*readout.Pulse
	for i := 0; i < 600; i++ {
		pulses = append(pulses, sharedChannel.Cal.Synthesize(i%2, rng))
	}
	acc, meanT := p.Accuracy(pulses, pHistory(100, 100))
	if acc < 0.9 {
		t.Fatalf("prediction accuracy %v, want > 0.9", acc)
	}
	if meanT >= sharedChannel.Cal.DurationNs {
		t.Fatalf("mean decision time %v not earlier than full readout", meanT)
	}
}

func TestPredictorFallbackUsesFullReadout(t *testing.T) {
	// With extreme thresholds nothing commits; decisions take the full
	// readout and match the conventional classification.
	cfg := Config{Theta: 0.9999999, Mode: ModeCombined}
	p := New(cfg, sharedChannel)
	rng := stats.NewRNG(5)
	pulse := sharedChannel.Cal.Synthesize(1, rng)
	d := p.Predict(sharedChannel.Classifier.ClassifyFullAndBits(pulse, nil), pHistory(0, 0), nil)
	if d.Committed {
		t.Fatalf("committed despite extreme thresholds: %+v", d)
	}
	if d.TimeNs != sharedChannel.Cal.DurationNs {
		t.Fatalf("fallback time %v, want full readout", d.TimeNs)
	}
	if d.Branch != sharedChannel.Classifier.ClassifyFull(pulse) {
		t.Fatal("fallback branch differs from conventional classification")
	}
}

func TestModeHistoryDecidesAtFirstWindowOrNever(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeHistory
	p := New(cfg, sharedChannel)
	r := sharedChannel.Read(1, stats.NewRNG(6), nil, nil, nil)
	d := p.Predict(r, pHistory(500, 1), nil)
	if !d.Committed || d.Branch != 1 || d.TimeNs != 30 {
		t.Fatalf("history-only strong prior: %+v", d)
	}
	// Weak prior: never commits, exactly one trace point.
	p2 := New(cfg, sharedChannel)
	d2 := p2.Predict(r, pHistory(10, 10), nil)
	if d2.Committed {
		t.Fatalf("history-only weak prior committed: %+v", d2)
	}
	if len(d2.Trace) != 1 {
		t.Fatalf("history-only trace length %d, want 1", len(d2.Trace))
	}
}

func TestModeTrajectoryIgnoresHistory(t *testing.T) {
	// Trajectory-only decisions must be byte-identical regardless of the
	// historical distribution.
	cfg := DefaultConfig()
	cfg.Mode = ModeTrajectory
	pA := New(cfg, sharedChannel)
	pB := New(cfg, sharedChannel)
	rng := stats.NewRNG(7)
	for i := 0; i < 50; i++ {
		r := sharedChannel.Read(i%2, rng, nil, nil, nil)
		dA, dB := pA.Predict(r, pHistory(1000, 1), nil), pB.Predict(r, pHistory(1, 1000), nil)
		if dA.Branch != dB.Branch || dA.TimeNs != dB.TimeNs || dA.Committed != dB.Committed {
			t.Fatalf("history leaked into trajectory-only decision: %+v vs %+v", dA, dB)
		}
	}
}

func TestCombinedFasterThanTrajectoryOnly(t *testing.T) {
	// With a strong prior, fusing history must commit no later on average
	// than the pulse alone — the Figure 14 ablation direction.
	rng := stats.NewRNG(8)
	var pulses []*readout.Pulse
	for i := 0; i < 200; i++ {
		state := 0
		if rng.Bool(0.05) {
			state = 1
		}
		pulses = append(pulses, sharedChannel.Cal.Synthesize(state, rng))
	}
	comb := New(DefaultConfig(), sharedChannel)
	cfgT := DefaultConfig()
	cfgT.Mode = ModeTrajectory
	traj := New(cfgT, sharedChannel)
	_, tComb := comb.Accuracy(pulses, pHistory(5, 95))
	_, tTraj := traj.Accuracy(pulses, pHistory(0, 0))
	if tComb >= tTraj {
		t.Fatalf("combined (%v ns) not faster than trajectory-only (%v ns)", tComb, tTraj)
	}
}

func TestTraceMonotoneTime(t *testing.T) {
	p := New(DefaultConfig(), sharedChannel)
	d := p.Predict(sharedChannel.Read(1, stats.NewRNG(11), nil, nil, nil), pHistory(0, 0), nil)
	for i := 1; i < len(d.Trace); i++ {
		if d.Trace[i].TimeNs <= d.Trace[i-1].TimeNs {
			t.Fatal("trace times not increasing")
		}
	}
	if len(d.Trace) == 0 {
		t.Fatal("empty trace")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	New(Config{Theta: 0.2}, sharedChannel)
}

// TestRecordWindowsEmitsOneEventPerWindow checks the Figure 15a trace
// export: one StageWindow annotation per trace point, contiguous in time
// from 0, carrying the posterior and its branch lean.
func TestRecordWindowsEmitsOneEventPerWindow(t *testing.T) {
	d := Decision{Trace: []PredictionPoint{
		{Windows: 1, TimeNs: 100, PPredict: 0.3},
		{Windows: 2, TimeNs: 200, PPredict: 0.5},
		{Windows: 3, TimeNs: 300, PPredict: 0.95},
	}}
	d.RecordWindows(nil) // tracing off: a no-op
	rec := trace.NewRecorder(0)
	span := rec.Shot(4)
	d.RecordWindows(span)
	rec.Commit(span)
	evs := rec.Events()
	if len(evs) != len(d.Trace) {
		t.Fatalf("%d events, want %d", len(evs), len(d.Trace))
	}
	wantLean := []int8{0, 1, 1}
	prev := 0.0
	for i, e := range evs {
		pt := d.Trace[i]
		if e.Stage != trace.StageWindow || e.Shot != 4 {
			t.Fatalf("event %d: stage %v shot %d, want %v shot 4", i, e.Stage, e.Shot, trace.StageWindow)
		}
		if e.StartNs != prev || e.EndNs != pt.TimeNs {
			t.Fatalf("event %d spans [%v, %v], want [%v, %v]", i, e.StartNs, e.EndNs, prev, pt.TimeNs)
		}
		if e.Value != pt.PPredict || e.Outcome != wantLean[i] {
			t.Fatalf("event %d: value %v lean %d, want %v lean %d", i, e.Value, e.Outcome, pt.PPredict, wantLean[i])
		}
		prev = pt.TimeNs
	}

	// A real decision's windows end where the branch became available.
	p := New(DefaultConfig(), sharedChannel)
	live := p.Predict(sharedChannel.Read(1, stats.NewRNG(12), nil, nil, nil), 0.5, nil)
	rec.Reset()
	span = rec.Shot(0)
	live.RecordWindows(span)
	rec.Commit(span)
	evs = rec.Events()
	if len(evs) != len(live.Trace) || len(evs) == 0 {
		t.Fatalf("%d events for a %d-window trace", len(evs), len(live.Trace))
	}
	if live.Committed && evs[len(evs)-1].EndNs != live.TimeNs {
		t.Fatalf("last window ends at %v, decision at %v", evs[len(evs)-1].EndNs, live.TimeNs)
	}
}

func TestModeStringAndReadoutDuration(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeCombined: "combined", ModeHistory: "history-only", ModeTrajectory: "readout-only", Mode(7): "mode(7)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	p := New(DefaultConfig(), sharedChannel)
	if got := p.ReadoutDurationNs(); got != sharedChannel.Cal.DurationNs || got <= 0 {
		t.Fatalf("ReadoutDurationNs = %v, channel duration %v", got, sharedChannel.Cal.DurationNs)
	}
}

// pHistory is the historical probability of branch 1 of a uniform
// Beta(1, 1) counter seeded with the given pseudo-counts, as when prior
// shots of the same program have already executed.
func pHistory(ones, zeros float64) float64 {
	h := stats.NewBetaCounter()
	h.Alpha += ones
	h.Beta += zeros
	return h.P()
}
