package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"artery/internal/fault"
	"artery/internal/quantum"
	"artery/internal/stats"
	"artery/internal/trace"
	"artery/internal/workload"
)

// engineDigests pins the engine's output across commits. Every other
// determinism suite compares two configurations of the same build
// (workers, backends, compiled tape vs instruction walk); this one
// compares a build with the bytes an earlier build produced. A refactor of the shot
// executors must leave every digest unchanged. A deliberate change of the
// physics draws (a new readout synthesis model, say) changes them all
// once, and the new values are recorded here in the same change.
var engineDigests = map[string]string{
	"qubic-fanout-sim":                  "2fb28f0a00316fb9f5049c1df24cd948b6ebab2e792c11ea13720c6f7035762a",
	"qubic-fanout-sim/faults":           "52987be73c4385d6b716c53d2faaa6f32566a4a6d17f2f6d495cb693af56a70a",
	"qubic-fanout-nosim":                "29e18f6517677b8df553285587de8159140f79c791db43bdb5447cc1b78cb260",
	"qubic-fanout-nosim/faults":         "9775d508b6e8e7474ef8e144ad74e9bca8fe7bbbe822b5729143c2607208b65a",
	"artery-pipeline":                   "affee538d944bb245c25eb22f3ed27bbc337dd244fc2e58e458d336f4027a72a",
	"artery-pipeline/faults":            "e81def3870e0e272c1226a7733feaf5a2595ced1e335b59adbddfc2bfd93afab",
	"artery-pipeline-range":             "b9132ee94a770fc3d0fbec6f23d0a8fb493d72139fb08db959d11fe757e367b7",
	"artery-serial-sim":                 "af0b95e241f48100d88553821a302f7c3c0717538b318164e7a47d0130dbd5b6",
	"artery-serial-sim/faults":          "29492b17d6bf894e28a9067346884087e2829816f814258afd78ecc2cbbf6e0d",
	"artery-pipeline-qrw3":              "9eff3f3d95df1a89c07f9a6a970fc15053ba8d16ce84a3ba55214d2b3b61b20d",
	"artery-pipeline-qrw3/faults":       "7e03564957209f35c38efb3a37df6c53d7bfe690cd99fe20598b6476e8859d77",
	"artery-surface3-stabilizer":        "d62c0d1c586b8fdceac7be35e1fd880cbdf001be70b35f0ae1c07253120bdeb1",
	"artery-surface3-stabilizer/faults": "a3057c26f65bba92b318eba5d6833b3ec61607ce07cc5f2ffa97f64a69084890",
}

// digestRun runs one engine configuration with a trace recorder and
// measurement capture on and returns the SHA-256 over the bit-exact
// RunResult, every OnShot ShotResult (with its global index) and the
// trace JSONL. %#v prints every float in its shortest round-trip form and
// ignores String methods, so equal digests mean equal bits.
func digestRun(t *testing.T, e *Engine, wl *workload.Workload, offset, shots int, seed uint64) (string, RunResult) {
	t.Helper()
	h := sha256.New()
	e.Workers = 2
	e.RecordMeasurements = true
	e.Trace = trace.NewRecorder(0)
	e.OnShot = func(idx int, sr ShotResult) {
		fmt.Fprintf(h, "shot %d %#v\n", idx, sr)
	}
	res := e.RunRange(context.Background(), wl, offset, shots, stats.NewRNG(seed))
	fmt.Fprintf(h, "result %#v\n", res)
	if len(e.Trace.Events()) == 0 {
		t.Fatal("traced run committed no events")
	}
	if err := e.Trace.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), res
}

// TestEngineOutputDigests runs fixed seeds through every shot executor —
// the shot-safe fan-out with state simulation on and off, ARTERY's
// latency-only pipeline (full runs on QRW-5 and QRW-3 and a range run with
// offset > 0), its serial state-vector path, and the stabilizer backend on
// a distance-3 surface code — fault-free and under
// fault.Scaled(0.3) (range runs reject faults), and compares each
// output digest with the recorded one.
func TestEngineOutputDigests(t *testing.T) {
	type run struct {
		name     string
		mk       func() *Engine
		wl       *workload.Workload
		offset   int
		shots    int
		noFaults bool
	}
	qrw := workload.QRW(3)
	withSim := func(mk func() *Engine, sim bool) func() *Engine {
		return func() *Engine {
			e := mk()
			e.SimulateState = sim
			return e
		}
	}
	stabilizerArtery := func() *Engine {
		e := arteryEngine()
		e.Noise = cliffordSafeNoise()
		e.Backend = quantum.BackendStabilizer
		return e
	}
	runs := []run{
		{name: "qubic-fanout-sim", mk: withSim(qubicEngine, true), wl: qrw, shots: 40},
		{name: "qubic-fanout-nosim", mk: withSim(qubicEngine, false), wl: qrw, shots: 40},
		{name: "artery-pipeline", mk: withSim(arteryEngine, false), wl: workload.QRW(5), shots: 60},
		{name: "artery-pipeline-range", mk: withSim(arteryEngine, false), wl: workload.QRW(5), offset: 25, shots: 30, noFaults: true},
		{name: "artery-serial-sim", mk: withSim(arteryEngine, true), wl: qrw, shots: 40},
		{name: "artery-pipeline-qrw3", mk: withSim(arteryEngine, false), wl: qrw, shots: 40},
		{name: "artery-surface3-stabilizer", mk: stabilizerArtery, wl: workload.SurfaceMemory(3), shots: 12},
	}
	checked := 0
	for _, r := range runs {
		for _, faulted := range []bool{false, true} {
			if faulted && r.noFaults {
				continue
			}
			name := r.name
			e := r.mk()
			if faulted {
				name += "/faults"
				e.Faults = fault.NewInjector(fault.Scaled(0.3))
			}
			got, res := digestRun(t, e, r.wl, r.offset, r.shots, 7)
			checked++
			if faulted && res.Faults.Glitches == 0 {
				t.Errorf("%s: no IQ glitch injected", name)
			}
			if want := engineDigests[name]; got != want {
				t.Errorf("%s: output digest %s, want %s", name, got, want)
			}
		}
	}
	if checked != len(engineDigests) {
		t.Fatalf("checked %d digests, %d recorded", checked, len(engineDigests))
	}
}
