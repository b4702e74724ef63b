// Package interconnect models ARTERY's scalable controller interconnection
// (§5.2): FPGA boards plugged into layered backplanes, with feedback
// signals routed over a three-level hierarchy —
//
//	level 1: source and destination qubits on the same FPGA (on-chip),
//	level 2: different FPGAs under the same backplane (one serdes hop),
//	level 3: across backplanes (serdes to the uplink, one inter-backplane
//	         hop, serdes down).
//
// The model assigns qubits to FPGAs and computes the transmission latency
// of a feedback trigger between any qubit pair, which the controller adds
// to the feedback path for remote branches.
package interconnect

import (
	"fmt"

	"artery/internal/trace"
)

// Level is the routing level of a feedback path.
type Level int

// Routing levels.
const (
	LevelOnChip         Level = 1 // same FPGA
	LevelBackplane      Level = 2 // same backplane, FPGA-to-FPGA
	LevelInterBackplane Level = 3 // across backplanes
)

func (l Level) String() string {
	switch l {
	case LevelOnChip:
		return "on-chip"
	case LevelBackplane:
		return "backplane"
	case LevelInterBackplane:
		return "inter-backplane"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Latency constants (ns). Serdes hop latency is from §6.1; the on-chip
// path is a couple of fabric cycles; the backplane crossbar adds a small
// fixed switching delay per level-3 crossing.
const (
	OnChipLatencyNs    = 4.0  // one 250 MHz fabric cycle
	SerdesHopLatencyNs = 48.0 // FPGA <-> backplane serdes (§6.1)
	BackplaneXbarNs    = 8.0  // backplane-to-backplane crossbar switch
)

// Topology maps qubits onto FPGAs and FPGAs onto backplanes.
type Topology struct {
	QubitsPerFPGA     int
	FPGAsPerBackplane int
	NumQubits         int
}

// NewTopology returns a topology covering numQubits with the given
// grouping. It panics on non-positive parameters.
func NewTopology(numQubits, qubitsPerFPGA, fpgasPerBackplane int) *Topology {
	if numQubits <= 0 || qubitsPerFPGA <= 0 || fpgasPerBackplane <= 0 {
		panic("interconnect: non-positive topology parameter")
	}
	return &Topology{
		QubitsPerFPGA:     qubitsPerFPGA,
		FPGAsPerBackplane: fpgasPerBackplane,
		NumQubits:         numQubits,
	}
}

// PaperTopology returns the evaluation platform of §6.1: 18 Xmon qubits,
// FPGAs carrying 16 DACs / 4 ADCs handle 6 qubits each (XY+Z+readout per
// qubit), 2 FPGAs per backplane.
func PaperTopology() *Topology { return NewTopology(18, 6, 2) }

func (t *Topology) checkQubit(q int) {
	if q < 0 || q >= t.NumQubits {
		panic(fmt.Sprintf("interconnect: qubit %d out of range [0,%d)", q, t.NumQubits))
	}
}

// FPGAOf returns the FPGA index controlling qubit q.
func (t *Topology) FPGAOf(q int) int {
	t.checkQubit(q)
	return q / t.QubitsPerFPGA
}

// BackplaneOf returns the backplane index of FPGA f.
func (t *Topology) BackplaneOf(f int) int { return f / t.FPGAsPerBackplane }

// NumFPGAs returns the number of FPGAs needed for the qubit count.
func (t *Topology) NumFPGAs() int {
	return (t.NumQubits + t.QubitsPerFPGA - 1) / t.QubitsPerFPGA
}

// NumBackplanes returns the number of backplanes.
func (t *Topology) NumBackplanes() int {
	return (t.NumFPGAs() + t.FPGAsPerBackplane - 1) / t.FPGAsPerBackplane
}

// RouteLevel returns the hierarchy level used by a feedback from qubit src
// (where the readout is classified) to qubit dst (where the branch pulses
// play).
func (t *Topology) RouteLevel(src, dst int) Level {
	fs, fd := t.FPGAOf(src), t.FPGAOf(dst)
	if fs == fd {
		return LevelOnChip
	}
	if t.BackplaneOf(fs) == t.BackplaneOf(fd) {
		return LevelBackplane
	}
	return LevelInterBackplane
}

// Latency returns the trigger transmission latency in ns from src to dst.
func (t *Topology) Latency(src, dst int) float64 {
	switch t.RouteLevel(src, dst) {
	case LevelOnChip:
		return OnChipLatencyNs
	case LevelBackplane:
		// FPGA -> backplane -> FPGA: two serdes hops over non-overlapping
		// point-to-point lanes.
		return 2 * SerdesHopLatencyNs
	default:
		// FPGA -> backplane -> crossbar -> backplane -> FPGA.
		return 2*SerdesHopLatencyNs + BackplaneXbarNs + SerdesHopLatencyNs
	}
}

// MessageHops returns the number of store-and-forward message hops a
// feedback message traverses from src to dst — the hop count the fault
// model exposes to loss/corruption, one chance per hop. On-chip paths are
// fabric wires with no message framing (0 hops); a backplane path is two
// serdes hops; an inter-backplane path adds the crossbar (3 hops).
func (t *Topology) MessageHops(src, dst int) int {
	switch t.RouteLevel(src, dst) {
	case LevelOnChip:
		return 0
	case LevelBackplane:
		return 2
	default:
		return 3
	}
}

// RetryPenaltyNs prices retries resends of a message over the src→dst
// path: each resend pays the (doubling) receiver timeout plus one fresh
// transit of the full path. This is the latency the graceful-degradation
// policy adds to a feedback when its backplane messages are dropped or
// corrupted.
func (t *Topology) RetryPenaltyNs(src, dst, retries int, backoffNs float64) float64 {
	if retries <= 0 {
		return 0
	}
	transit := t.Latency(src, dst)
	penalty := 0.0
	for k := 0; k < retries; k++ {
		penalty += backoffNs + transit
		backoffNs *= 2
	}
	return penalty
}

// RecordHops emits the src→dst hop traversal into span as StageHop
// annotations — one event per hop with cumulative transit times, Value
// holding the hop index and Outcome the routing level. The hop latencies
// sum to Latency(src, dst). Nil-safe via the span, and allocation-free.
func (t *Topology) RecordHops(span *trace.ShotSpan, src, dst int) {
	if span == nil {
		return
	}
	level := t.RouteLevel(src, dst)
	at := 0.0
	hop := 0
	emit := func(latNs float64) {
		span.Annotate(trace.StageHop, at, at+latNs, int(level), float64(hop))
		at += latNs
		hop++
	}
	switch level {
	case LevelOnChip:
		emit(OnChipLatencyNs)
	case LevelBackplane:
		emit(SerdesHopLatencyNs)
		emit(SerdesHopLatencyNs)
	default:
		emit(SerdesHopLatencyNs)
		emit(BackplaneXbarNs)
		emit(SerdesHopLatencyNs)
		emit(SerdesHopLatencyNs)
	}
}

// WorstCaseLatency returns the maximum trigger latency over all qubit
// pairs — the bound that sizes the dynamic timing controller's windows.
func (t *Topology) WorstCaseLatency() float64 {
	worst := 0.0
	for a := 0; a < t.NumQubits; a++ {
		for b := 0; b < t.NumQubits; b++ {
			if l := t.Latency(a, b); l > worst {
				worst = l
			}
		}
	}
	return worst
}

// FlatLatency returns the latency the same pair would pay on a
// non-hierarchical (single shared bus) interconnect, where every off-chip
// transfer crosses the full backplane chain. Used by tests and the design
// docs to show the hierarchy shortens the critical path.
func (t *Topology) FlatLatency(src, dst int) float64 {
	if t.FPGAOf(src) == t.FPGAOf(dst) {
		return OnChipLatencyNs
	}
	hops := float64(t.NumBackplanes())
	return 2*SerdesHopLatencyNs + hops*BackplaneXbarNs + SerdesHopLatencyNs
}
