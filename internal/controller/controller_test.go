package controller

import (
	"math"
	"strings"
	"testing"

	"artery/internal/circuit"
	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/readout"
	"artery/internal/stats"
)

func TestProcessingChain(t *testing.T) {
	u := DefaultUnits()
	if p := u.Processing(); p != 160 {
		t.Fatalf("Processing = %v, want 160", p)
	}
	if w := LatencyWall(u); w != 660 {
		t.Fatalf("LatencyWall = %v, want 660", w)
	}
}

func TestFigure2DesignPointsMonotone(t *testing.T) {
	pts := Figure2DesignPoints()
	if len(pts) < 3 {
		t.Fatal("need at least 3 design points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ReadoutNs <= pts[i-1].ReadoutNs || pts[i].T1Us <= pts[i-1].T1Us {
			t.Fatalf("readout/T1 trade-off not monotone at %d", i)
		}
	}
}

func TestTimingQuantization(t *testing.T) {
	tc := NewTimingController(DefaultUnits())
	e := tc.Issue(30.5, 4, 0, 1, false)
	if e.IssuedAtNs != 32 { // next 4 ns edge after 30.5
		t.Fatalf("issued at %v, want 32", e.IssuedAtNs)
	}
	if e.ArrivalNs() != 36 {
		t.Fatalf("arrival %v, want 36", e.ArrivalNs())
	}
}

func TestTimingFloor(t *testing.T) {
	tc := NewTimingController(DefaultUnits())
	// Early decision with a 2000 ns floor: trigger delayed so arrival >= floor.
	e := tc.Issue(30, 4, 2000, 0, false)
	if e.ArrivalNs() < 2000 {
		t.Fatalf("trigger arrives at %v before floor", e.ArrivalNs())
	}
	if e.ArrivalNs() > 2010 {
		t.Fatalf("trigger arrives at %v, far past floor", e.ArrivalNs())
	}
}

func TestStaticSlot(t *testing.T) {
	tc := NewTimingController(DefaultUnits())
	if s := tc.StaticSlot(2000); s != 2160 {
		t.Fatalf("static slot %v, want 2160", s)
	}
}

func TestTriggerString(t *testing.T) {
	e := TriggerEvent{IssuedAtNs: 100, TransitNs: 48, Remote: true, Branch: 1}
	if s := e.String(); s == "" {
		t.Fatal("empty trigger string")
	}
}

// testRig builds a calibrated ARTERY controller with a seeded predictor.
func testRig(seed uint64, cfg predict.Config) (*Artery, *readout.Channel) {
	ch := readout.NewChannel(readout.DefaultCalibration(), 30, 6, stats.NewRNG(seed))
	p := predict.New(cfg, ch)
	topo := interconnect.PaperTopology()
	return NewArtery(DefaultUnits(), topo, p), ch
}

var (
	sharedArtery, sharedChannel = testRig(77, predict.DefaultConfig())
)

func site1() Site {
	return Site{ID: 1, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 1,
		Prior: 0.5, UndoOnOneNs: 30, UndoOnZeroNs: 0}
}

// preparedShot reads one pulse of a qubit prepared in state and labels the
// shot with that state as its ground truth, whatever the pulse classifies
// as.
func preparedShot(ch *readout.Channel, state int, rng *stats.RNG) Shot {
	shot := Shot{Record: ch.Read(state, rng, nil, nil, nil)}
	shot.Truth = state
	return shot
}

// siteWithPrior returns a case-1 site with the given branch-1 prior.
func siteWithPrior(id int, prior float64) Site {
	s := site1()
	s.ID = id
	s.Prior = prior
	return s
}

func TestArteryCorrectPredictionBeatsReadout(t *testing.T) {
	a, ch := sharedArtery, sharedChannel
	rng := stats.NewRNG(1)
	out := a.Feedback(siteWithPrior(10, 0.995), Shot{Record: ch.Read(1, rng, nil, nil, nil)})
	if !out.Committed {
		t.Fatalf("no commitment: %+v", out)
	}
	if out.Correct && out.LatencyNs >= ReadoutNs {
		t.Fatalf("correct prediction latency %v not below readout %v", out.LatencyNs, ReadoutNs)
	}
}

func TestArteryMispredictionCostsRecovery(t *testing.T) {
	a, ch := testRig(78, predict.DefaultConfig())
	a.Online = false
	a.PriorWeight = 100000 // make the prior overwhelming
	rng := stats.NewRNG(2)
	// Ground truth 0 but history screams 1 → early wrong commitment.
	out := a.Feedback(siteWithPrior(11, 0.9999), preparedShot(ch, 0, rng))
	if out.Correct {
		t.Skip("predictor recovered from the bad prior on this pulse")
	}
	if out.LatencyNs <= ReadoutNs {
		t.Fatalf("misprediction latency %v should exceed the readout", out.LatencyNs)
	}
	if out.RecoveryNs != 30 {
		t.Fatalf("recovery %v, want 30 (undo of OnOne)", out.RecoveryNs)
	}
}

func TestArteryCase3FloorsAtReadoutEnd(t *testing.T) {
	a, ch := testRig(79, predict.DefaultConfig())
	rng := stats.NewRNG(3)
	site := Site{ID: 12, Case: circuit.Case3ReadQubit, ReadQubit: 0, BranchQubit: 0,
		Prior: 0.995, UndoOnOneNs: 30}
	out := a.Feedback(site, Shot{Record: ch.Read(1, rng, nil, nil, nil)})
	if !out.Committed || !out.Correct {
		t.Skipf("unexpected shot: %+v", out)
	}
	if out.LatencyNs < ReadoutNs {
		t.Fatalf("case-3 branch started at %v, before readout end", out.LatencyNs)
	}
	// But only just after: the pre-reset fires almost immediately (§6.2's
	// 2.01 µs vs QubiC's 2.16 µs).
	if out.LatencyNs > ReadoutNs+20 {
		t.Fatalf("case-3 start %v too far past readout end", out.LatencyNs)
	}
}

func TestArteryCase4NeverPreExecutes(t *testing.T) {
	a, ch := sharedArtery, sharedChannel
	rng := stats.NewRNG(4)
	site := Site{ID: 13, Case: circuit.Case4Irreversible, ReadQubit: 0, BranchQubit: 2, Prior: 0.5}
	out := a.Feedback(site, Shot{Record: ch.Read(1, rng, nil, nil, nil)})
	if out.Committed {
		t.Fatal("case-4 site committed a pre-execution")
	}
	if out.LatencyNs < ReadoutNs+160 {
		t.Fatalf("case-4 latency %v below conventional path", out.LatencyNs)
	}
}

func TestArteryRemoteBranchPaysTransit(t *testing.T) {
	a, ch := testRig(80, predict.DefaultConfig())
	a.Online = false
	rng := stats.NewRNG(5)
	local := Site{ID: 14, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 1, Prior: 0.995}
	remote := Site{ID: 15, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 13, Prior: 0.995}
	// Use the same readout for both.
	shot := Shot{Record: ch.Read(1, rng, nil, nil, nil)}
	oL := a.Feedback(local, shot)
	oR := a.Feedback(remote, shot)
	if !oL.Committed || !oR.Committed || !oL.Correct || !oR.Correct {
		t.Skipf("shots not both correct commits: %+v %+v", oL, oR)
	}
	if oR.LatencyNs <= oL.LatencyNs {
		t.Fatalf("remote branch (%v) not slower than local (%v)", oR.LatencyNs, oL.LatencyNs)
	}
	if !oR.Trigger.Remote || oL.Trigger.Remote {
		t.Fatal("trigger remote flags wrong")
	}
}

func TestBaselineLatencies(t *testing.T) {
	topo := interconnect.PaperTopology()
	shot := Shot{Record: readout.Record{Truth: 0}}
	wants := map[string]float64{
		"QubiC":          2150,
		"HERQULES":       2170,
		"Salathe et al.": 2115,
		"Reuer et al.":   2400,
	}
	for _, b := range Baselines(topo) {
		out := b.Feedback(site1(), shot)
		if want := wants[b.Name()]; math.Abs(out.LatencyNs-want) > 1e-9 {
			t.Errorf("%s latency %v, want %v", b.Name(), out.LatencyNs, want)
		}
		if out.Committed || !out.Correct {
			t.Errorf("%s baseline flags wrong: %+v", b.Name(), out)
		}
	}
}

func TestBaselineRemotePaysSerdes(t *testing.T) {
	topo := interconnect.PaperTopology()
	b := NewBaseline("QubiC", QubiCOverheadNs, topo)
	local := b.Feedback(site1(), Shot{})
	remoteSite := Site{ID: 16, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 13, Prior: 0.5}
	remote := b.Feedback(remoteSite, Shot{})
	if remote.LatencyNs <= local.LatencyNs {
		t.Fatal("remote baseline feedback not slower")
	}
}

func TestArteryAverageBeatsQubiCOnBalancedWorkload(t *testing.T) {
	// The headline: averaged over shots, ARTERY's feedback latency is well
	// below QubiC's wait-for-readout latency.
	a, ch := testRig(81, predict.DefaultConfig())
	topo := interconnect.PaperTopology()
	qubic := NewBaseline("QubiC", QubiCOverheadNs, topo)
	rng := stats.NewRNG(8)
	var sumA, sumQ float64
	const shots = 300
	for i := 0; i < shots; i++ {
		shot := Shot{Record: ch.Read(i%2, rng, nil, nil, nil)}
		sumA += a.Feedback(site1(), shot).LatencyNs
		sumQ += qubic.Feedback(site1(), shot).LatencyNs
	}
	speedup := sumQ / sumA
	if speedup < 1.3 {
		t.Fatalf("ARTERY speedup %vx over QubiC, want > 1.3x (paper: 2.07x avg)", speedup)
	}
}

func TestArteryOnlineLearning(t *testing.T) {
	a, ch := testRig(82, predict.DefaultConfig())
	rng := stats.NewRNG(9)
	site := siteWithPrior(17, 0.5)
	before := a.siteHistory(site).P()
	for i := 0; i < 30; i++ {
		a.Feedback(site, preparedShot(ch, 1, rng))
	}
	if a.siteHistory(site).P() <= before {
		t.Fatal("online mode did not update the site history")
	}
}

func TestLatencyBreakdownSumsToLatency(t *testing.T) {
	a, ch := testRig(83, predict.DefaultConfig())
	a.Online = false
	rng := stats.NewRNG(20)
	sites := []Site{
		siteWithPrior(30, 0.99),
		{ID: 31, Case: circuit.Case2Ancilla, ReadQubit: 0, BranchQubit: 2, Prior: 0.99},
		{ID: 32, Case: circuit.Case3ReadQubit, ReadQubit: 0, BranchQubit: 0, Prior: 0.99},
	}
	checked := 0
	for _, site := range sites {
		for i := 0; i < 10; i++ {
			out := a.Feedback(site, Shot{Record: ch.Read(1, rng, nil, nil, nil)})
			if !out.Committed || !out.Correct {
				continue
			}
			checked++
			if diff := out.Breakdown.Total() - out.LatencyNs; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("site %d: breakdown %v != latency %v", site.ID, out.Breakdown.Total(), out.LatencyNs)
			}
			if site.Case == circuit.Case2Ancilla && out.Breakdown.StagingNs != 92+AncillaPrepNs {
				t.Fatalf("case-2 staging %v, want %v", out.Breakdown.StagingNs, 92+AncillaPrepNs)
			}
			if site.Case == circuit.Case3ReadQubit && out.Breakdown.FloorWaitNs <= 0 && out.LatencyNs >= ReadoutNs {
				// Early commits on case 3 must report the floor wait.
				if out.Breakdown.DecisionNs < ReadoutNs-200 {
					t.Fatalf("case-3 early commit missing floor wait: %+v", out.Breakdown)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no committed correct shots sampled")
	}
}

func TestFormatSequence(t *testing.T) {
	a, ch := testRig(84, predict.DefaultConfig())
	a.Online = false
	rng := stats.NewRNG(21)
	shot := Shot{Record: ch.Read(1, rng, nil, nil, nil)}
	out := a.Feedback(siteWithPrior(40, 0.99), shot)
	s := FormatSequence(siteWithPrior(40, 0.99), out, ReadoutNs)
	for _, want := range []string{"readout pulse starts", "t="} {
		if !strings.Contains(s, want) {
			t.Fatalf("sequence missing %q:\n%s", want, s)
		}
	}
	if out.Committed && !strings.Contains(s, "feedback trigger") {
		t.Fatalf("committed shot missing trigger line:\n%s", s)
	}
	// Conventional (baseline) sequence renders too.
	b := NewBaseline("QubiC", QubiCOverheadNs, interconnect.PaperTopology())
	outB := b.Feedback(site1(), shot)
	sb := FormatSequence(site1(), outB, ReadoutNs)
	if !strings.Contains(sb, "conventional path") {
		t.Fatalf("baseline sequence wrong:\n%s", sb)
	}
}
