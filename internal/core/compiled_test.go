package core

import (
	"fmt"
	"testing"

	"artery/internal/stats"
	"artery/internal/workload"
)

// walkMatchesRun runs shots of wl on a fresh engine from mk, then walks
// every shot again with runShotWalk on a second fresh engine: serially, in
// shot order, one stream of rng.SplitN(shots) per shot, exactly the
// streams Run derives. It fails on the first walked ShotResult that
// differs from the one Run passed to OnShot, and returns Run's result.
// %#v prints every field, every float in its shortest round-trip form and
// NaN as NaN, so equal strings mean equal bits.
func walkMatchesRun(t *testing.T, mk func() *Engine, wl *workload.Workload, shots int, seed uint64) RunResult {
	t.Helper()
	e := mk()
	var merged []string
	e.OnShot = func(_ int, sr ShotResult) { merged = append(merged, fmt.Sprintf("%#v", sr)) }
	res := e.Run(wl, shots, stats.NewRNG(seed))
	if len(merged) != shots {
		t.Fatalf("run merged %d of %d shots", len(merged), shots)
	}

	w := mk()
	plan := w.planFor(wl.Circuit)
	sk := w.simKindFor(plan, wl.Circuit)
	if sk == simTableau {
		t.Fatal("the walker has no tableau twin")
	}
	for i, r := range stats.NewRNG(seed).SplitN(shots) {
		walked := fmt.Sprintf("%#v", w.runShotWalk(wl, plan.analyses, sk == simState, r, nil, nil))
		if walked != merged[i] {
			t.Fatalf("shot %d diverged from the instruction walk:\nrun  %s\nwalk %s", i, merged[i], walked)
		}
	}
	return res
}

// TestCompiledMatchesInterpreted is the differential guarantee behind the
// compiled-execution layer: for every execution mode of Engine.Run
// (shot-safe fan-out with and without state simulation, the two-phase
// synth/feedback pipeline, and serial simulated whole shots), every
// merged shot must equal the instruction walk of the same shot stream bit
// for bit — same latencies, same outcomes and stage partitions, same
// fidelities — at any worker count, across seeds. The compiled path is the
// default everywhere else in the suite, so the seed-1 golden outputs pin
// it too; this test pins it to the instruction-walk reference semantics
// directly.
func TestCompiledMatchesInterpreted(t *testing.T) {
	modes := []struct {
		name     string
		make     func() *Engine
		simulate bool
		dd       bool
	}{
		// Whole shots, shot-safe controller: shots fan out. QRW exercises
		// fused single-qubit runs around feedback sites.
		{"qubic-qrw-sim", qubicEngine, true, false},
		{"qubic-qrw-nosim", qubicEngine, false, false},
		// Sequential controller, no simulation — the two-phase
		// pipeline (readout records captured on the worker side, the
		// controller on the merge path).
		{"artery-qrw-nosim", arteryEngine, false, false},
		// Whole shots, sequential controller + state sim: one worker, with
		// dynamical decoupling on so the idle-noise draw order is covered.
		{"artery-qrw-sim-dd", arteryEngine, true, true},
	}
	wl := workload.QRW(3)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for seed := uint64(1); seed <= 2; seed++ {
					mk := func() *Engine {
						e := m.make()
						e.SimulateState = m.simulate
						e.EnableDD = m.dd
						e.Workers = workers
						return e
					}
					t.Logf("workers=%d seed=%d", workers, seed)
					walkMatchesRun(t, mk, wl, 40, seed)
				}
			}
		})
	}
}

// TestCompiledMatchesInterpretedOtherWorkloads sweeps the remaining
// instruction kinds through the differential check: Reset covers
// OpMeasure/OpReset tape ops and thermal initial excitation; MSI covers
// Case-1 sites whose branch bodies fuse multiple single-qubit gates.
func TestCompiledMatchesInterpretedOtherWorkloads(t *testing.T) {
	wls := []*workload.Workload{workload.Reset(2), workload.MSI(3)}
	for _, wl := range wls {
		t.Run(wl.Name, func(t *testing.T) {
			for _, mk := range []func() *Engine{qubicEngine, arteryEngine} {
				walkMatchesRun(t, func() *Engine {
					e := mk()
					e.SimulateState = true
					e.Workers = 2
					return e
				}, wl, 30, 7)
			}
		})
	}
}

// TestCompiledMispredictRecoveryMatches forces the mispredict-recovery
// path (pre-executed wrong branch, precompiled inverse tape, corrected
// branch) through the differential check by running the predictive ARTERY
// controller with state simulation over a workload with near-uniform
// priors — QRW commits predictions that are wrong often enough that the
// recovery tape replays every few shots.
func TestCompiledMispredictRecoveryMatches(t *testing.T) {
	cr := walkMatchesRun(t, func() *Engine {
		e := arteryEngine()
		e.SimulateState = true
		return e
	}, workload.QRW(5), 60, 3)
	// The run must actually have exercised recovery for this test to mean
	// anything: committed-but-wrong outcomes exist iff accuracy < 1 with a
	// positive commit rate.
	if cr.CommitRate == 0 || cr.Accuracy == 1 {
		t.Fatalf("no mispredict recovery exercised (commit=%v accuracy=%v)", cr.CommitRate, cr.Accuracy)
	}
}
