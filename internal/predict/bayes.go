// Package predict implements ARTERY's quantum branch prediction (§4): a
// reconciled predictor that fuses the historical branch distribution of a
// feedback site with a real-time trajectory classification of the partial
// readout pulse through a Bayesian model, and commits a branch as soon as
// the posterior crosses a confidence threshold.
package predict

import (
	"fmt"

	"artery/internal/readout"
	"artery/internal/stats"
	"artery/internal/trace"
)

// BayesCombine fuses the historical probability P_history_1 and the
// trajectory-table probability P_read_1 with the paper's Bayesian model:
//
//	P_predict_1 = (Ph·Pr) / (Ph·Pr + (1−Ph)·(1−Pr))
//
// Inputs are clamped to (ε, 1−ε) so a saturated table entry can never
// produce a division by zero or a hard 0/1 posterior.
func BayesCombine(pHist, pRead float64) float64 {
	const eps = 1e-6
	pHist = clamp(pHist, eps, 1-eps)
	pRead = clamp(pRead, eps, 1-eps)
	num := pHist * pRead
	return num / (num + (1-pHist)*(1-pRead))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Mode selects which features the predictor uses — the Figure 14 ablation.
type Mode int

// Predictor feature modes.
const (
	ModeCombined   Mode = iota // history + readout trajectory (ARTERY)
	ModeHistory                // historical branch distribution only
	ModeTrajectory             // readout-pulse analysis only
)

func (m Mode) String() string {
	switch m {
	case ModeCombined:
		return "combined"
	case ModeHistory:
		return "history-only"
	case ModeTrajectory:
		return "readout-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes one predictor instance.
type Config struct {
	// Theta is the confidence threshold for committing either branch: 1
	// when the posterior reaches it, 0 when 1 − posterior does.
	Theta float64
	Mode  Mode
}

// DefaultConfig returns the paper's evaluation configuration: the tuned
// 0.91 operating point (Figure 17).
func DefaultConfig() Config {
	return Config{Theta: 0.91, Mode: ModeCombined}
}

// Validate checks threshold sanity.
func (c Config) Validate() error {
	if c.Theta <= 0.5 || c.Theta >= 1 {
		return fmt.Errorf("predict: threshold must lie in (0.5, 1): θ=%v", c.Theta)
	}
	return nil
}

// PredictionPoint is one step of the iterative analysis: the posterior
// after window Windows (1-based) at time TimeNs into the readout.
type PredictionPoint struct {
	Windows  int
	TimeNs   float64
	PRead1   float64
	PPredict float64
}

// Decision is the outcome of predicting one shot.
type Decision struct {
	// Branch is the committed branch (0/1). When Committed is false the
	// predictor never reached confidence and Branch is the full-readout
	// classification instead (conventional path, no pre-execution).
	Branch    int
	Committed bool
	// TimeNs is the readout time at which the branch became available:
	// the threshold-crossing window boundary when Committed, otherwise the
	// full readout duration.
	TimeNs float64
	// PFinal is the posterior at decision time.
	PFinal float64
	// Trace records the per-window posterior evolution (Figure 15a).
	Trace []PredictionPoint
}

// RecordWindows emits the decision's per-window posterior evolution into
// span as StageWindow annotations: one event per demodulation window, with
// Value holding P_predict after the window and Outcome the window's
// running branch lean. Nil-safe via the span (tracing off costs one nil
// check).
func (d *Decision) RecordWindows(span *trace.ShotSpan) {
	if span == nil {
		return
	}
	prev := 0.0
	for _, pt := range d.Trace {
		lean := 0
		if pt.PPredict >= 0.5 {
			lean = 1
		}
		span.Annotate(trace.StageWindow, prev, pt.TimeNs, lean, pt.PPredict)
		prev = pt.TimeNs
	}
}

// Predictor is the reconciled branch predictor: it fuses a feedback
// site's historical probability, which its caller keeps, with the
// channel's pre-generated trajectory state table.
type Predictor struct {
	cfg     Config
	channel *readout.Channel
}

// New returns a predictor over a calibrated readout channel.
// It panics if cfg is invalid.
func New(cfg Config, ch *readout.Channel) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Predictor{cfg: cfg, channel: ch}
}

// Predict runs the iterative analysis over one feedback site's readout
// record and returns the decision. pHist is the site's historical
// probability of branch 1 — the controller keeps one historical
// distribution per feedback site, since branch statistics of different
// sites are independent (§4). The posterior is evaluated at every window
// boundary and the branch commits at the first threshold crossing; with
// no crossing the decision falls back to the record's full-readout
// classification. tableFault, when non-nil, intercepts every state-table
// lookup before the Bayesian fusion, which is how the fault subsystem
// models corrupted table RAM.
func (p *Predictor) Predict(r readout.Record, pHist float64, tableFault func(float64) float64) Decision {
	windowNs := p.channel.Classifier.WindowNs
	bits := r.Bits

	// One window boundary per bit: size the trace once instead of letting
	// append re-grow it inside the per-shot hot loop.
	trace := make([]PredictionPoint, 0, len(bits))
	for n := 1; n <= len(bits); n++ {
		pRead := p.channel.Table.PRead1(bits[:n])
		if tableFault != nil {
			pRead = tableFault(pRead)
		}
		var post float64
		switch p.cfg.Mode {
		case ModeHistory:
			post = pHist
		case ModeTrajectory:
			post = pRead
		default:
			post = BayesCombine(pHist, pRead)
		}
		t := float64(n) * windowNs
		trace = append(trace, PredictionPoint{Windows: n, TimeNs: t, PRead1: pRead, PPredict: post})
		if post >= p.cfg.Theta {
			return Decision{Branch: 1, Committed: true, TimeNs: t, PFinal: post, Trace: trace}
		}
		if 1-post >= p.cfg.Theta {
			return Decision{Branch: 0, Committed: true, TimeNs: t, PFinal: post, Trace: trace}
		}
		if p.cfg.Mode == ModeHistory {
			// History never changes within a shot: if it cannot commit at
			// the first window it never will.
			break
		}
	}
	// No commitment: fall back to the conventional full-readout path.
	pFinal := 0.0
	if len(trace) > 0 {
		pFinal = trace[len(trace)-1].PPredict
	}
	return Decision{
		Branch:    r.Truth,
		Committed: false,
		TimeNs:    p.channel.Cal.DurationNs,
		PFinal:    pFinal,
		Trace:     trace,
	}
}

// Accuracy measures prediction accuracy and mean commit time over a set of
// labelled pulses (ground truth = full-pulse classification) at the
// historical branch-1 probability pHist.
func (p *Predictor) Accuracy(pulses []*readout.Pulse, pHist float64) (acc, meanTimeNs float64) {
	if len(pulses) == 0 {
		return 0, 0
	}
	ok := 0
	var t stats.RunningMean
	for _, pl := range pulses {
		r := p.channel.Classifier.ClassifyFullAndBits(pl, nil)
		d := p.Predict(r, pHist, nil)
		if d.Branch == r.Truth {
			ok++
		}
		t.Add(d.TimeNs)
	}
	return float64(ok) / float64(len(pulses)), t.Mean()
}

// ReadoutDurationNs exposes the channel's full readout duration.
func (p *Predictor) ReadoutDurationNs() float64 { return p.channel.Cal.DurationNs }

// EstimateLatencyBudget reports, for diagnostics, how much of the
// commitment latency is pipeline math versus windows: the Bayesian model
// is a multiply plus a FIFO and produces P_predict three FPGA cycles after
// a window classification lands (§5.1).
const BayesPipelineCycles = 3
