package core

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"artery/internal/stats"
	"artery/internal/workload"
)

// never is the disabled cancellation predicate used by tests.
func never(int) bool { return false }

func TestForEachShotOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const shots = 200
		var got []int
		forEachShot(shots, workers, never, func(i int) int {
			return i * i
		}, func(i int, v int) {
			if v != i*i {
				t.Fatalf("workers=%d: merge(%d) got %d, want %d", workers, i, v, i*i)
			}
			got = append(got, i)
		})
		if len(got) != shots {
			t.Fatalf("workers=%d: merged %d shots, want %d", workers, len(got), shots)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: merge order broken at position %d: %v", workers, i, v)
			}
		}
	}
}

func TestForEachShotZeroShots(t *testing.T) {
	called := false
	forEachShot(0, 4, never, func(i int) int { called = true; return 0 },
		func(int, int) { called = true })
	if called {
		t.Fatal("forEachShot(0, ...) invoked a callback")
	}
}

func TestForEachShotBodiesRunConcurrently(t *testing.T) {
	// Exercised under -race by the ci target: bodies touching shared
	// structures (here a mutex-guarded counter) must be race-free.
	var mu sync.Mutex
	n := 0
	forEachShot(100, 8, never, func(i int) int {
		mu.Lock()
		n++
		mu.Unlock()
		return i
	}, func(int, int) {})
	if n != 100 {
		t.Fatalf("ran %d bodies, want 100", n)
	}
}

// TestForEachShotBufferBoundedByWindow pins the reorder buffer to its
// 2×workers window: a run of 64k shots allocates no more than a run of
// 1k.
func TestForEachShotBufferBoundedByWindow(t *testing.T) {
	type result [14]int64 // 112 bytes, about a ShotResult's size
	allocs := func(shots int) float64 {
		return testing.AllocsPerRun(5, func() {
			forEachShot(shots, 2, never, func(i int) result {
				return result{int64(i)}
			}, func(int, result) {})
		})
	}
	if small, large := allocs(1<<10), allocs(1<<16); large > small {
		t.Fatalf("forEachShot allocates %v times for 64k shots and %v for 1k: the buffer grows with the shot count", large, small)
	}
}

// runResultsEqual compares two RunResults bit-for-bit, treating NaN
// fidelities as equal.
func runResultsEqual(a, b RunResult) bool {
	if math.IsNaN(a.MeanFidelity) != math.IsNaN(b.MeanFidelity) {
		return false
	}
	if math.IsNaN(a.MeanFidelity) {
		a.MeanFidelity, b.MeanFidelity = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// TestRunDeterministicAcrossWorkerCounts is the tentpole guarantee: for
// every execution mode of Engine.Run, the RunResult is bit-identical at
// workers=1, workers=4 and workers=GOMAXPROCS, across several seeds.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	modes := []struct {
		name     string
		make     func() *Engine
		simulate bool
	}{
		// Whole shots, shot-safe controller: shots fan out.
		{"baseline-sim", qubicEngine, true},
		{"baseline-nosim", qubicEngine, false},
		// Sequential controller, two-phase synth/feedback pipeline.
		{"artery-nosim", arteryEngine, false},
		// Whole shots, sequential controller + state sim: one worker.
		{"artery-sim", arteryEngine, true},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	wl := workload.QRW(3)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				var ref RunResult
				for wi, workers := range workerCounts {
					// A fresh engine per run: Artery's Bayesian site
					// histories learn across shots, so reusing one would
					// conflate worker-count effects with learning state.
					e := m.make()
					e.SimulateState = m.simulate
					e.Workers = workers
					res := e.Run(wl, 50, stats.NewRNG(seed))
					if wi == 0 {
						ref = res
						continue
					}
					if !runResultsEqual(ref, res) {
						t.Fatalf("seed %d: workers=%d diverged from workers=%d:\n%+v\nvs\n%+v",
							seed, workers, workerCounts[0], res, ref)
					}
				}
			}
		})
	}
}

// TestRunShotAgreesWithRun pins the equivalence between the public
// single-shot API and Run's per-stream execution: Run(wl, 1, rng) must
// produce exactly the shot RunShot produces from rng's first split.
func TestRunShotAgreesWithRun(t *testing.T) {
	for _, simulate := range []bool{false, true} {
		e := arteryEngine()
		e.SimulateState = simulate
		wl := workload.QRW(2)
		single := e.RunShot(wl, stats.NewRNG(9).SplitN(1)[0])

		e2 := arteryEngine()
		e2.SimulateState = simulate
		res := e2.Run(wl, 1, stats.NewRNG(9))
		if res.Latencies[0] != single.FeedbackLatencyNs {
			t.Fatalf("simulate=%v: Run latency %v != RunShot latency %v",
				simulate, res.Latencies[0], single.FeedbackLatencyNs)
		}
		if simulate && res.MeanFidelity != single.Fidelity {
			t.Fatalf("Run fidelity %v != RunShot fidelity %v", res.MeanFidelity, single.Fidelity)
		}
	}
}
