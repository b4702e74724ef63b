package artery

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its experiment
// through the harness in internal/experiment and reports the headline
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Run with -v or the artery-bench command
// to see the rendered tables.

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"artery/internal/experiment"
)

// benchSuite is shared across benchmarks (channel calibration is the
// expensive setup step); experiments derive their own seeds.
var (
	benchSuiteOnce sync.Once
	benchSuiteVal  *experiment.Suite
)

func benchSuite() *experiment.Suite {
	benchSuiteOnce.Do(func() {
		benchSuiteVal = experiment.NewSuite(1, 30)
	})
	return benchSuiteVal
}

// cellF parses a numeric table cell ("2.15", "92.1%", "1.86x").
func cellF(b *testing.B, cell string) float64 {
	b.Helper()
	cell = strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v
}

func runExperiment(b *testing.B, id string, metric func(*experiment.Table) (float64, string)) {
	s := benchSuite()
	gen := experiment.Registry[id]
	if gen == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var tab *experiment.Table
	for i := 0; i < b.N; i++ {
		tab = gen(s)
	}
	if metric != nil {
		v, name := metric(tab)
		b.ReportMetric(v, name)
	}
	if testing.Verbose() {
		b.Log("\n" + tab.String())
	}
}

// BenchmarkFigure2LatencyWall regenerates the latency-wall breakdown.
func BenchmarkFigure2LatencyWall(b *testing.B) {
	runExperiment(b, "fig2", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Rows[len(t.Rows)-1][1]), "wall-ns"
	})
}

// BenchmarkFigure4Motivation regenerates the prior/posterior shot study.
func BenchmarkFigure4Motivation(b *testing.B) {
	runExperiment(b, "fig4", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(0, 2)), "P-read-1"
	})
}

// BenchmarkTable1FeedbackLatency regenerates the 5-method latency grid.
func BenchmarkTable1FeedbackLatency(b *testing.B) {
	runExperiment(b, "table1", func(t *experiment.Table) (float64, string) {
		// ARTERY QRW-1 cell: headline per-feedback latency.
		return cellF(b, t.Rows[4][1]) * 1000, "artery-qrw1-ns"
	})
}

// BenchmarkFigure12aQECLatency regenerates the QEC latency panel.
func BenchmarkFigure12aQECLatency(b *testing.B) {
	runExperiment(b, "fig12a", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(0, 3)), "correction-speedup"
	})
}

// BenchmarkFigure12bLogicalError regenerates the LER-vs-cycles comparison.
func BenchmarkFigure12bLogicalError(b *testing.B) {
	runExperiment(b, "fig12b", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Rows[len(t.Rows)-1][3]), "ler-reduction"
	})
}

// BenchmarkFigure12cGoogleComparison regenerates the Sycamore comparison.
func BenchmarkFigure12cGoogleComparison(b *testing.B) {
	runExperiment(b, "fig12c", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Rows[len(t.Rows)-1][2]), "artery-ler-pct-c25"
	})
}

// BenchmarkFigure12dCodeDistance regenerates the latency-benefit model.
func BenchmarkFigure12dCodeDistance(b *testing.B) {
	runExperiment(b, "fig12d", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Rows[len(t.Rows)-1][1]), "crossover-distance"
	})
}

// BenchmarkFigure13Fidelity regenerates the fidelity comparison.
func BenchmarkFigure13Fidelity(b *testing.B) {
	runExperiment(b, "fig13", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(0, 5)), "artery-fidelity-qrw15"
	})
}

// BenchmarkFigure14Ablation regenerates the feature ablation.
func BenchmarkFigure14Ablation(b *testing.B) {
	runExperiment(b, "fig14", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(1, 5)) * 1000, "combined-qrw-ns"
	})
}

// BenchmarkFigure15aAccuracyVsTime regenerates the accuracy/time curve.
func BenchmarkFigure15aAccuracyVsTime(b *testing.B) {
	runExperiment(b, "fig15a", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Rows[len(t.Rows)-1][1]), "late-accuracy-pct"
	})
}

// BenchmarkFigure15bAccuracyDistribution regenerates the accuracy spread.
func BenchmarkFigure15bAccuracyDistribution(b *testing.B) {
	runExperiment(b, "fig15b", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(0, 2)), "qec-mean-accuracy-pct"
	})
}

// BenchmarkTable2PulseSampling regenerates the compression evaluation.
func BenchmarkTable2PulseSampling(b *testing.B) {
	runExperiment(b, "table2", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(0, 5)), "qec-combined-gbps"
	})
}

// BenchmarkFigure16WindowLength regenerates the window-length sweep.
func BenchmarkFigure16WindowLength(b *testing.B) {
	runExperiment(b, "fig16", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(2, 1)) * 1000, "win30-latency-ns"
	})
}

// BenchmarkFigure17Threshold regenerates the threshold sweep.
func BenchmarkFigure17Threshold(b *testing.B) {
	runExperiment(b, "fig17", func(t *experiment.Table) (float64, string) {
		return cellF(b, t.Cell(4, 1)) * 1000, "theta91-latency-ns"
	})
}

// BenchmarkPredictorShot measures the cost of one end-to-end predicted
// shot (pulse synthesis + demodulation + table lookups + Bayesian fusion),
// the per-shot work the FPGA performs in O(1) per window.
func BenchmarkPredictorShot(b *testing.B) {
	sys := MustNew(WithSeed(1), WithoutStateSim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PredictShot(i%2, 0.5)
	}
}

// BenchmarkEngineQRWShot measures one full engine shot with state
// simulation (gates + noise channels + feedback).
func BenchmarkEngineQRWShot(b *testing.B) {
	sys := MustNew(WithSeed(1))
	wl := QRW(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(wl, 1)
	}
}

// BenchmarkEngineRun measures Engine.Run's multi-shot throughput
// (shots/sec; allocs/op via -benchmem) at serial and parallel worker
// settings for both parallel execution modes: a shot-safe baseline with
// state simulation (whole shots fan out) and the ARTERY controller
// without it (the synth/feedback pipeline). Worker counts above
// GOMAXPROCS only add speedup on multi-core hosts; results are
// bit-identical at every setting either way.
func BenchmarkEngineRun(b *testing.B) {
	const shotsPerRun = 100
	cases := []struct {
		name     string
		ctrl     string
		stateSim bool
	}{
		{"baseline-sim", "QubiC", true},
		{"artery-nosim", "ARTERY", false},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			name := c.name + "/workers=" + strconv.Itoa(workers)
			b.Run(name, func(b *testing.B) {
				opts := []Option{WithSeed(1), WithWorkers(workers)}
				if !c.stateSim {
					opts = append(opts, WithoutStateSim())
				}
				sys, err := New(opts...)
				if err != nil {
					b.Fatal(err)
				}
				wl := QRW(5)
				sys.RunWith(c.ctrl, wl, 2) // warm calibration + analysis caches
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.RunWith(c.ctrl, wl, shotsPerRun)
				}
				b.StopTimer()
				shots := float64(b.N * shotsPerRun)
				b.ReportMetric(shots/b.Elapsed().Seconds(), "shots/s")
			})
		}
	}
}

// Ablation benchmarks for the repository's own design decisions
// (DESIGN.md): run with -bench 'Ablation'.

func runAblation(b *testing.B, id string) {
	s := benchSuite()
	gen := experiment.ExtraRegistry[id]
	if gen == nil {
		b.Fatalf("unknown ablation %s", id)
	}
	var tab *experiment.Table
	for i := 0; i < b.N; i++ {
		tab = gen(s)
	}
	if testing.Verbose() {
		b.Log("\n" + tab.String())
	}
}

// BenchmarkAblationStateTable compares the single time-invariant trajectory
// table against the time-bucketed design.
func BenchmarkAblationStateTable(b *testing.B) { runAblation(b, "abl-table") }

// BenchmarkAblationSmoothing sweeps the table's Beta smoothing mass.
func BenchmarkAblationSmoothing(b *testing.B) { runAblation(b, "abl-smooth") }

// BenchmarkAblationInterconnect compares hierarchical routing to a flat bus.
func BenchmarkAblationInterconnect(b *testing.B) { runAblation(b, "abl-route") }

// BenchmarkAblationCodecOrder compares combined-codec stage orders.
func BenchmarkAblationCodecOrder(b *testing.B) { runAblation(b, "abl-codec") }
