package controller

import "fmt"

// Pipeline is a cycle-accurate model of the Figure 7(c) processing units on
// the state-classification half of the feedback controller:
//
//	ADC stream -> stream-width adapter -> demodulator (MAC pipeline)
//	  -> demodulation result queue -> branch history registers
//	  -> state table (BRAM) -> Bayesian unit (multiplier + FIFO)
//	  -> branch decider -> feedback trigger
//
// The behavioral Artery controller folds this chain into its unit-latency
// constants; Pipeline is a test oracle that verifies that composition cycle
// by cycle and answers throughput questions (the chain must sustain one
// demodulation window per window period, or the queue backs up and
// prediction lags the readout).
type Pipeline struct {
	ClockNs float64 // fabric clock period (4 ns at 250 MHz)
	// ADCSamplesPerCycle is the deserialized sample rate into the fabric:
	// 1 GSPS across a 4 ns cycle = 4 samples/cycle.
	ADCSamplesPerCycle int
	// WindowSamples is the demodulation window length in ADC samples.
	WindowSamples int

	// Unit depths in fabric cycles (defaults model §2.2's constants).
	AdapterCycles int // stream-width adapter + buffering
	DemodCycles   int // MAC pipeline depth after the last sample lands
	QueueCycles   int // demodulation result queue push/pop
	HistoryCycles int // branch history register update
	TableCycles   int // state-table BRAM read
	BayesCycles   int // Bayesian unit: multiplier + FIFO (paper: 3 cycles)
	DeciderCycles int // threshold comparison
}

// NewPipeline returns the evaluation configuration: 250 MHz fabric, 1 GSPS
// ADC, 30-sample windows, and unit depths that compose to the published
// ADC-to-decision overhead.
func NewPipeline() *Pipeline {
	return &Pipeline{
		ClockNs:            4,
		ADCSamplesPerCycle: 4,
		WindowSamples:      30,
		AdapterCycles:      5, // 20 ns of the 44 ns ADC block after deserialization
		DemodCycles:        6, // 24 ns MAC drain
		QueueCycles:        1,
		HistoryCycles:      1,
		TableCycles:        1,
		BayesCycles:        3,
		DeciderCycles:      1,
	}
}

// StageCycles returns the post-arrival pipeline depth in cycles (every
// stage after the window's last sample has been captured).
func (p *Pipeline) StageCycles() int {
	return p.AdapterCycles + p.DemodCycles + p.QueueCycles +
		p.HistoryCycles + p.TableCycles + p.BayesCycles + p.DeciderCycles
}

// OverheadNs returns the ADC-to-decision overhead in ns.
func (p *Pipeline) OverheadNs() float64 {
	return float64(p.StageCycles()) * p.ClockNs
}

// WindowArrivalCycle returns the fabric cycle at which window w's last
// sample (0-based windows) has been deserialized into the adapter.
func (p *Pipeline) WindowArrivalCycle(w int) int {
	samples := (w + 1) * p.WindowSamples
	return (samples + p.ADCSamplesPerCycle - 1) / p.ADCSamplesPerCycle
}

// DecisionCycle returns the cycle at which window w's posterior emerges
// from the branch decider.
func (p *Pipeline) DecisionCycle(w int) int {
	return p.WindowArrivalCycle(w) + p.StageCycles()
}

// DecisionNs returns the wall-clock time of window w's decision.
func (p *Pipeline) DecisionNs(w int) float64 {
	return float64(p.DecisionCycle(w)) * p.ClockNs
}

// Throughput reports whether the pipeline sustains one window per window
// period: each stage must initiate a new window every WindowSamples /
// ADCSamplesPerCycle cycles, so no single stage's initiation interval may
// exceed that budget. All modeled stages are fully pipelined (initiation
// interval 1), so the constraint is the demodulator's MAC count.
func (p *Pipeline) Throughput() (windowPeriodCycles int, sustained bool) {
	windowPeriodCycles = p.WindowSamples / p.ADCSamplesPerCycle
	// The demodulator must multiply-accumulate WindowSamples samples per
	// window; with ADCSamplesPerCycle MACs it needs WindowSamples /
	// ADCSamplesPerCycle cycles per window — exactly the arrival rate.
	sustained = windowPeriodCycles >= 1
	return windowPeriodCycles, sustained
}

// TriggerTrace simulates the trigger timing for a shot whose posterior
// crosses the threshold at window commitWindow (0-based; negative = never):
// it returns the per-window decision times and the trigger issue time.
type TriggerTrace struct {
	DecisionNs []float64
	TriggerNs  float64 // -1 when no commitment
}

// Trace computes decision timings for the first n windows.
func (p *Pipeline) Trace(n, commitWindow int) TriggerTrace {
	if n < 1 {
		panic(fmt.Sprintf("controller: pipeline trace needs n >= 1, got %d", n))
	}
	t := TriggerTrace{TriggerNs: -1}
	for w := 0; w < n; w++ {
		t.DecisionNs = append(t.DecisionNs, p.DecisionNs(w))
	}
	if commitWindow >= 0 && commitWindow < n {
		t.TriggerNs = p.DecisionNs(commitWindow)
	}
	return t
}
