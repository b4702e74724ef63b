package experiment

import (
	"fmt"

	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/pulse"
	"artery/internal/qec"
	"artery/internal/readout"
	"artery/internal/stats"
	"artery/internal/workload"
)

// This file holds ablation studies for the repository's own design
// decisions (DESIGN.md), beyond the paper's figures. They are registered
// in ExtraRegistry and exposed through artery-bench and bench_test.go.

// ExtraRegistry maps ablation ids to generators.
var ExtraRegistry = map[string]Generator{
	"abl-table":   (*Suite).AblationTimeBuckets,
	"abl-route":   (*Suite).AblationInterconnect,
	"abl-codec":   (*Suite).AblationCodecOrder,
	"abl-smooth":  (*Suite).AblationSmoothing,
	"xtr-circqec": (*Suite).ExtraCircuitLevelQEC,
	"xtr-budget":  (*Suite).ExtraLatencyBudget,
}

// ExtraLatencyBudget decomposes ARTERY's committed feedback latency into
// its pipeline stages per workload — where the nanoseconds go when a
// prediction fires (decision, Bayesian pipeline + clock, interconnect
// transit, speculative staging, case-3 floor wait).
func (s *Suite) ExtraLatencyBudget() *Table {
	t := &Table{
		ID:    "Extra: latency budget",
		Title: "stage decomposition of committed correct feedbacks (mean ns)",
		Header: []string{"workload", "decision", "pipeline", "transit",
			"staging", "floor wait", "total"},
	}
	for wi, wl := range []*workloadT{
		workload.QECCycle(1),
		workload.QRW(5),
		workload.RCNOT(3),
		workload.EntangleSwap(2),
		workload.Reset(1),
	} {
		e := s.arteryEngine(predict.ModeCombined, 0.91)
		rng := stats.NewRNG(s.Seed + uint64(2500+wi))
		var dec, pipe, tr, st, fl, tot stats.RunningMean
		for shot := 0; shot < s.Shots; shot++ {
			sr := e.RunShot(wl, rng)
			for _, o := range sr.Outcomes {
				if !o.Committed || !o.Correct {
					continue
				}
				dec.Add(o.Breakdown.DecisionNs)
				pipe.Add(o.Breakdown.PipelineNs)
				tr.Add(o.Breakdown.TransitNs)
				st.Add(o.Breakdown.StagingNs)
				fl.Add(o.Breakdown.FloorWaitNs)
				tot.Add(o.LatencyNs)
			}
		}
		t.AddRow(wl.Name,
			fmt.Sprintf("%.0f", dec.Mean()), fmt.Sprintf("%.0f", pipe.Mean()),
			fmt.Sprintf("%.0f", tr.Mean()), fmt.Sprintf("%.0f", st.Mean()),
			fmt.Sprintf("%.0f", fl.Mean()), fmt.Sprintf("%.0f", tot.Mean()))
	}
	t.Note("decision time dominates balanced workloads; the case-3 floor dominates reset")
	return t
}

// predictorQuality measures committed accuracy and mean decision time of a
// combined predictor over a fresh balanced test set on the given channel.
func (s *Suite) predictorQuality(ch *readout.Channel, shots int, salt uint64) (acc, meanNs float64, commitRate float64) {
	p := predict.New(predict.Config{Theta: 0.91, Mode: predict.ModeCombined}, ch)
	rng := stats.NewRNG(s.Seed + salt)
	committed, correct := 0, 0
	var t stats.RunningMean
	for i := 0; i < shots; i++ {
		r := ch.Read(i%2, rng, nil, nil, nil)
		d := p.Predict(r, 0.5, nil)
		t.Add(d.TimeNs)
		if d.Committed {
			committed++
			if d.Branch == r.Truth {
				correct++
			}
		}
	}
	if committed > 0 {
		acc = float64(correct) / float64(committed)
	} else {
		acc = 1
	}
	return acc, t.Mean(), float64(committed) / float64(shots)
}

// AblationTimeBuckets compares the paper-literal single time-invariant
// state table against the time-bucketed table this implementation uses for
// cumulative trajectories: the single table reads late-window confidence
// into early windows and commits overconfident predictions.
func (s *Suite) AblationTimeBuckets() *Table {
	cal := readout.DefaultCalibration()
	shots := 25 * s.Shots
	t := &Table{
		ID:     "Ablation: state-table time buckets",
		Title:  "single (paper-literal) vs time-bucketed trajectory table",
		Header: []string{"table", "committed accuracy", "mean decision (µs)", "commit rate", "size (bytes)"},
	}
	for _, cfg := range []struct {
		name    string
		buckets int
	}{
		{"single bucket", 1},
		{"time-bucketed (16)", readout.MaxTimeBuckets},
	} {
		table := readout.NewStateTableOpts(readout.DefaultK, cfg.buckets, 5)
		ch := readout.NewChannelWithTable(cal, 30, table, stats.NewRNG(s.Seed+uint64(cfg.buckets)))
		acc, lat, commit := s.predictorQuality(ch, shots, uint64(2000+cfg.buckets))
		t.AddRow(cfg.name, pct(acc), us(lat), pct(commit), fmt.Sprint(table.SizeBytes()))
	}
	t.Note("the single table aggregates all windows into one bucket; with cumulative IQ trajectories it is overconfident early (winner's-curse commits)")
	return t
}

// AblationSmoothing compares table smoothing strengths: near-Laplace
// smoothing lets weakly-populated buckets fluctuate across the commit
// threshold.
func (s *Suite) AblationSmoothing() *Table {
	cal := readout.DefaultCalibration()
	shots := 25 * s.Shots
	t := &Table{
		ID:     "Ablation: state-table smoothing",
		Title:  "Beta pseudo-count mass per table bucket",
		Header: []string{"smoothing", "committed accuracy", "mean decision (µs)", "commit rate"},
	}
	for i, sm := range []float64{0.5, 1, 5, 20} {
		table := readout.NewStateTableOpts(readout.DefaultK, readout.MaxTimeBuckets, sm)
		ch := readout.NewChannelWithTable(cal, 30, table, stats.NewRNG(s.Seed+uint64(100+i)))
		acc, lat, commit := s.predictorQuality(ch, shots, uint64(2100+i))
		t.AddRow(fmt.Sprintf("%.1f", sm), pct(acc), us(lat), pct(commit))
	}
	t.Note("weak smoothing commits earlier but below the threshold's stated confidence; heavy smoothing delays commits")
	return t
}

// AblationInterconnect compares the paper's hierarchical backplane routing
// against a flat shared bus across system sizes.
func (s *Suite) AblationInterconnect() *Table {
	t := &Table{
		ID:     "Ablation: interconnect hierarchy",
		Title:  "hierarchical 3-level routing vs flat shared bus (mean trigger latency, ns)",
		Header: []string{"system", "hierarchical", "flat bus", "saving"},
	}
	for _, cfg := range []struct {
		name    string
		qubits  int
		perFPGA int
		perBP   int
	}{
		{"18 qubits (paper)", 18, 6, 2},
		{"72 qubits", 72, 6, 2},
		{"512 qubits", 512, 8, 4},
	} {
		topo := interconnect.NewTopology(cfg.qubits, cfg.perFPGA, cfg.perBP)
		var h, f stats.RunningMean
		rng := stats.NewRNG(s.Seed + uint64(cfg.qubits))
		for i := 0; i < 2000; i++ {
			a, b := rng.Intn(cfg.qubits), rng.Intn(cfg.qubits)
			h.Add(topo.Latency(a, b))
			f.Add(topo.FlatLatency(a, b))
		}
		t.AddRow(cfg.name, fmt.Sprintf("%.1f", h.Mean()), fmt.Sprintf("%.1f", f.Mean()),
			ratio(f.Mean()/h.Mean()))
	}
	t.Note("the hierarchy's advantage grows with system size: flat-bus crossings pay every backplane's crossbar")
	return t
}

// ExtraCircuitLevelQEC repeats the Figure-12b comparison with the
// gate-by-gate circuit-level memory simulation on the stabilizer
// substrate (RunCircuitMemory) instead of the phenomenological model —
// a robustness check that the latency-driven LER gap survives realistic
// syndrome-extraction noise.
func (s *Suite) ExtraCircuitLevelQEC() *Table {
	code := qec.NewCode(3)
	dec := qec.NewLUTDecoder(code)
	trials := 20 * s.Shots
	_, _, aCycle := s.qecCycleStats(true)
	_, _, qCycle := s.qecCycleStats(false)
	run := func(cycleNs, exposure float64, cycles int, salt uint64) float64 {
		return qec.RunCircuitMemory(qec.CircuitMemoryParams{
			Code: code, Dec: dec, Cycles: cycles, Trials: trials,
			P1Q: 0.0006, P2Q: 0.003, PMeas: 0.01,
			PIdleData: qec.PDataFromLatency(cycleNs, qecT1Ns, exposure, 0),
		}, stats.NewRNG(s.Seed+salt)).LogicalErrorRate()
	}
	t := &Table{
		ID:     "Extra: circuit-level QEC",
		Title:  "Figure-12b comparison under gate-by-gate circuit noise",
		Header: []string{"cycles", "QubiC LER", "ARTERY LER", "reduction"},
	}
	for _, c := range []int{5, 15, 25} {
		a := run(aCycle, qecExposureArtery, c, uint64(3000+c))
		q := run(qCycle, qecExposureQubiC, c, uint64(4000+c))
		red := "n/a"
		if a > 0 {
			red = ratio(q / a)
		}
		t.AddRow(fmt.Sprint(c), pct(q), pct(a), red)
	}
	t.Note("phenomenological counterpart: Figure 12b; gate noise p1q=0.06%%, p2q=0.3%%, meas 1%%")
	return t
}

// AblationCodecOrder validates the combined codec's stage order: the paper
// applies Huffman before run-length, and on compiled pulse streams that
// order wins — the Huffman stage maps the dominant zero samples to
// near-zero code bytes whose long runs the run-length stage then
// collapses. The reverse order leaves the (already dense) run-length
// records to a Huffman pass with far less structure to exploit.
func (s *Suite) AblationCodecOrder() *Table {
	t := &Table{
		ID:     "Ablation: combined codec stage order",
		Title:  "compression ratio of codec compositions on compiled pulse streams",
		Header: []string{"benchmark", "huffman only", "rle only", "huffman→rle (paper, ours)", "rle→huffman (reverse)"},
	}
	for _, wl := range table2Workloads() {
		streams := pulse.CompileCircuit(wl.Circuit)
		var raw []byte
		for q := 0; q < len(streams); q++ {
			raw = append(raw, streams[q].Bytes()...)
		}
		huff := pulse.Ratio(pulse.HuffmanCodec{}, raw)
		rle := pulse.Ratio(pulse.RLECodec{}, raw)
		paperOrder := pulse.Ratio(pulse.CombinedCodec{}, raw)
		reverse := float64(len(pulse.HuffmanCodec{}.Encode(pulse.RLECodec{}.Encode(raw)))) / float64(len(raw))
		t.AddRow(wl.Name,
			fmt.Sprintf("%.4f", huff), fmt.Sprintf("%.4f", rle),
			fmt.Sprintf("%.4f", paperOrder), fmt.Sprintf("%.4f", reverse))
	}
	t.Note("the paper's order compounds: Huffman's zero-heavy code bytes still form long runs")
	return t
}
