package experiment

import (
	"fmt"

	"artery/internal/core"
	"artery/internal/trace"
	"artery/internal/workload"
)

func init() {
	ExtraRegistry["xtr-stages"] = (*Suite).ExtraStageBreakdown
}

// ExtraStageBreakdown decomposes every controller's feedback latency into
// pipeline stages (readout wait, decision, pipeline fill, classification,
// transit, staging, floor wait, recovery) over a QRW-5 run — the table
// behind RunResult.Stages. Stage sums partition each controller's total
// feedback latency exactly, so the table doubles as a consistency check
// on the tracing layer; the ARTERY column's machine-readable rows are
// attached as the table's Stages metadata (schema-version-2 JSON).
func (s *Suite) ExtraStageBreakdown() *Table {
	wl := workload.QRW(5)
	engines := s.engines()
	results := make([]core.RunResult, len(engines))
	s.forEachCell(len(engines), func(i int) {
		results[i] = s.runCell(engines[i], wl, uint64(7700+10*i))
	})

	t := &Table{
		ID:     "xtr-stages",
		Title:  fmt.Sprintf("Per-stage feedback latency breakdown (%s, mean ns per occurrence)", wl.Name),
		Header: []string{"stage"},
	}
	byName := make([]map[string]core.StageLatency, len(results))
	for i, res := range results {
		t.Header = append(t.Header, res.Controller)
		byName[i] = map[string]core.StageLatency{}
		for _, sl := range res.Stages {
			byName[i][sl.Stage] = sl
		}
	}
	// Rows follow the trace package's pipeline order; a stage appears when
	// any controller exercised it.
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		if !st.Additive() {
			continue
		}
		name := st.String()
		row := []string{name}
		seen := false
		for i := range results {
			if sl, ok := byName[i][name]; ok {
				row = append(row, fmt.Sprintf("%.1f", sl.MeanNs))
				seen = true
			} else {
				row = append(row, "-")
			}
		}
		if seen {
			t.AddRow(row...)
		}
	}

	// Attach the ARTERY breakdown (engines() puts ARTERY last) as the
	// machine-readable metadata and record the partition check.
	a := results[len(results)-1]
	t.Stages = a.Stages
	var stageTotal float64
	for _, sl := range a.Stages {
		stageTotal += sl.TotalNs
	}
	shotTotal := a.MeanLatencyNs * float64(a.Shots)
	t.Note("ARTERY stage totals sum to %.0f ns vs %.0f ns total feedback latency (payload included)",
		stageTotal, shotTotal)
	return t
}
