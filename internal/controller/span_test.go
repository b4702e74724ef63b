package controller

import (
	"math"
	"testing"

	"artery/internal/circuit"
	"artery/internal/fault"
	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/stats"
	"artery/internal/trace"
)

func TestLatencyBreakdownStagesOrder(t *testing.T) {
	b := LatencyBreakdown{
		DecisionNs: 1, PipelineNs: 2, TransitNs: 4, StagingNs: 8, FloorWaitNs: 16,
		ReadoutNs: 32, ClassifyNs: 64, RecoveryNs: 128, RetryNs: 256, FaultNs: 512,
	}
	wantStages := []trace.Stage{
		trace.StageReadout, trace.StageDecision, trace.StagePipeline, trace.StageClassify,
		trace.StageTransit, trace.StageRetry, trace.StageStaging, trace.StageFloorWait,
		trace.StageRecovery, trace.StageFault,
	}
	wantNs := []float64{32, 1, 2, 64, 4, 256, 8, 16, 128, 512}
	var stages []trace.Stage
	var durs []float64
	sum := 0.0
	b.Stages(func(st trace.Stage, d float64) {
		stages = append(stages, st)
		durs = append(durs, d)
		sum += d
	})
	if len(stages) != len(wantStages) {
		t.Fatalf("Stages visited %v, want %v", stages, wantStages)
	}
	for i := range stages {
		if stages[i] != wantStages[i] || durs[i] != wantNs[i] {
			t.Fatalf("stage %d = %v (%v ns), want %v (%v ns)", i, stages[i], durs[i], wantStages[i], wantNs[i])
		}
		if !stages[i].Additive() {
			t.Fatalf("stage %v is not additive", stages[i])
		}
	}
	if sum != b.Total() {
		t.Fatalf("stage durations sum to %v, Total() = %v", sum, b.Total())
	}
	// Zero components are skipped.
	n := 0
	LatencyBreakdown{ReadoutNs: 2000, ClassifyNs: 150}.Stages(func(trace.Stage, float64) { n++ })
	if n != 2 {
		t.Fatalf("Stages visited %d components of a two-component breakdown", n)
	}
}

// tracedFeedback runs one Feedback call with tracing on and returns the
// outcome with the shot's committed events.
func tracedFeedback(c Controller, site Site, shot Shot) (Outcome, []trace.Event) {
	rec := trace.NewRecorder(0)
	shot.Span = rec.Shot(0)
	out := c.Feedback(site, shot)
	rec.Commit(shot.Span)
	return out, rec.Events()
}

// checkPartition asserts that the additive events tile [0, LatencyNs]
// without gaps or overlaps, and returns them.
func checkPartition(t *testing.T, out Outcome, evs []trace.Event) []trace.Event {
	t.Helper()
	var add []trace.Event
	at := 0.0
	for _, e := range evs {
		if !e.Stage.Additive() {
			continue
		}
		if e.StartNs != at || e.EndNs < e.StartNs {
			t.Fatalf("%v spans [%v, %v], want a start at %v", e.Stage, e.StartNs, e.EndNs, at)
		}
		at = e.EndNs
		add = append(add, e)
	}
	if len(add) == 0 {
		t.Fatal("no additive events recorded")
	}
	if math.Abs(at-out.LatencyNs) > 1e-9 {
		t.Fatalf("additive events end at %v, latency %v", at, out.LatencyNs)
	}
	return add
}

func countStage(evs []trace.Event, st trace.Stage) int {
	n := 0
	for _, e := range evs {
		if e.Stage == st {
			n++
		}
	}
	return n
}

// TestFeedbackSpanPartitionsLatency checks the trace contract of both
// controllers: the per-stage spans of a shot sum to its feedback latency,
// window and hop annotations ride alongside, and fault or fallback spans
// are flagged as such.
func TestFeedbackSpanPartitionsLatency(t *testing.T) {
	remote := Site{ID: 40, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 13, Prior: 0.9}

	t.Run("artery", func(t *testing.T) {
		a, ch := testRig(91, predict.DefaultConfig())
		a.Online = false
		rng := stats.NewRNG(22)
		committed := 0
		for i := 0; i < 20; i++ {
			out, evs := tracedFeedback(a, siteWithPrior(41, 0.9), Shot{Record: ch.Read(1, rng, nil, nil, nil)})
			add := checkPartition(t, out, evs)
			if countStage(evs, trace.StageWindow) == 0 {
				t.Fatal("no per-window posterior annotations")
			}
			mis := out.Committed && !out.Correct
			for _, e := range add {
				if e.Fault || e.Mispredict != mis || int(e.Outcome) != out.Predicted {
					t.Fatalf("shot %d: %v event %+v, outcome %+v", i, e.Stage, e, out)
				}
			}
			if out.Committed {
				committed++
			}
		}
		if committed == 0 {
			t.Fatal("no shot committed early; the predictive path went unchecked")
		}
	})

	t.Run("artery-remote", func(t *testing.T) {
		a, ch := testRig(92, predict.DefaultConfig())
		a.Online = false
		out, evs := tracedFeedback(a, remote, Shot{Record: ch.Read(1, stats.NewRNG(23), nil, nil, nil)})
		checkPartition(t, out, evs)
		if countStage(evs, trace.StageHop) == 0 {
			t.Fatal("remote branch recorded no hop annotations")
		}
	})

	t.Run("artery-outage-fallback", func(t *testing.T) {
		a, ch := testRig(301, predict.DefaultConfig())
		cfg := fault.DefaultPolicy()
		cfg.ReadoutOutageRate = 0.999
		sess := faultSession(t, cfg, 21)
		out, evs := tracedFeedback(a, site1(), Shot{Record: ch.Read(1, stats.NewRNG(5), nil, nil, nil), Faults: sess})
		if sess.C.Outages != 1 || !out.FellBack {
			t.Fatalf("outage did not force the blocking path: outages %d, %+v", sess.C.Outages, out)
		}
		for _, e := range checkPartition(t, out, evs) {
			if !e.Fault {
				t.Fatalf("fallback shot %v span not flagged as a fault", e.Stage)
			}
		}
	})

	for _, c := range []struct {
		name string
		site Site
		hops int
	}{{"baseline-local", site1(), 0}, {"baseline-remote", remote, 4}} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBaseline("QubiC", QubiCOverheadNs, interconnect.PaperTopology())
			out, evs := tracedFeedback(b, c.site, Shot{})
			add := checkPartition(t, out, evs)
			if add[0].Stage != trace.StageReadout || add[0].EndNs != ReadoutNs {
				t.Fatalf("baseline starts with %v ending at %v, want a %v ns readout", add[0].Stage, add[0].EndNs, ReadoutNs)
			}
			if got := countStage(evs, trace.StageHop); got != c.hops {
				t.Fatalf("%d hop annotations, want %d", got, c.hops)
			}
		})
	}
}

func TestControllerIdentityAndShotSafety(t *testing.T) {
	topo := interconnect.PaperTopology()
	p := predict.New(predict.DefaultConfig(), sharedChannel)
	a := NewArtery(DefaultUnits(), topo, p)
	if a.Name() != "ARTERY" {
		t.Errorf("Artery name %q", a.Name())
	}
	if a.Predictor() != p {
		t.Error("Predictor() does not return the controller's predictor")
	}
	// Artery learns shot by shot, so the engine must never fan it out.
	if _, ok := Controller(a).(ShotSafe); ok {
		t.Error("Artery claims ShotSafe")
	}
	for _, b := range Baselines(topo) {
		ss, ok := b.(ShotSafe)
		if !ok || !ss.ShotSafe() {
			t.Errorf("baseline %s is not shot-safe", b.Name())
		}
	}
}
