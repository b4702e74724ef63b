package readout

import (
	"artery/internal/stats"
)

// Calibration sizing: the paper's corpus is 4,000 captured pulses, 1,000
// of which train the classifier and the state table (§6.1). Calibration
// draws only the training split; the 3,000 evaluation pulses exist only in
// this package's tests, as part of the reference corpus.
const (
	TrainSize    = 1000
	DefaultK     = 6    // branch-history registers
	DefaultWinNs = 30.0 // demodulation window length
)

// Channel bundles everything one readout line needs at run time: the
// calibration, a trained classifier and a trained trajectory state table.
// It is what the feedback controller instantiates per qubit.
//
// Concurrency contract: Synthesize/Classify*/WindowBits/PRead1 are pure
// reads, so one Channel may be shared by all of an engine's shot workers.
// Training and tuning (Table.Update, retuning the classifier) are not
// synchronized — do not run them while shots are in flight.
type Channel struct {
	Cal        *Calibration
	Classifier *Classifier
	Table      *StateTable
}

// NewChannel calibrates a full readout channel from a balanced training
// corpus of TrainSize pulses: it fits cluster centers, labels outcomes and
// pre-generates the trajectory state table. It consumes exactly the
// training pulses' draws from rng — per pulse, the prepared-state coin
// then the synthesis draws — so a caller that keeps using rng afterwards
// sees the stream continue from there.
func NewChannel(cal *Calibration, windowNs float64, k int, rng *stats.RNG) *Channel {
	return NewChannelWithTable(cal, windowNs, NewStateTable(k), rng)
}

// NewChannelWithTable calibrates a channel into a caller-provided (empty)
// state table — the hook the ablation experiments use to compare table
// configurations (single-bucket vs time-bucketed, smoothing strengths) on
// identical training data. Its draws from rng are NewChannel's.
//
// The corpus is streamed: each training pulse is synthesized into one
// reused record and demodulated in a single pass, and only its integrated
// IQ and the cumulative IQ at each window boundary are kept (~1 MiB for the
// whole split at 30 ns windows). The center fit folds in as the pulses
// arrive; the outcome labels and window bits then follow from the kept
// points, bit-identical to classifying the materialized pulses.
func NewChannelWithTable(cal *Calibration, windowNs float64, table *StateTable, rng *stats.RNG) *Channel {
	var (
		p   Pulse
		fit centerFit
	)
	windows := cal.sampleLimit(cal.Samples(), 0) / cal.WindowSamples(windowNs)
	full := make([]IQ, TrainSize)
	points := make([]IQ, 0, TrainSize*windows)
	for i := range full {
		state := 0
		if rng.Bool(0.5) {
			state = 1
		}
		cal.SynthesizeInto(&p, state, rng)
		points, full[i] = cal.appendCumulative(points, &p, windowNs)
		fit.add(&p, full[i])
	}
	cls := fit.classifier(cal, windowNs)
	bits := make([]int, windows)
	for i, integrated := range full {
		for j, pt := range points[i*windows : (i+1)*windows] {
			bits[j] = cls.ClassifyWindow(pt)
		}
		table.trainShot(bits, cls.classifyIntegrated(integrated))
	}
	return &Channel{Cal: cal, Classifier: cls, Table: table}
}

// Accuracy evaluates full-pulse classification accuracy of the channel on
// a labelled test set against prepared states (assignment fidelity).
func (ch *Channel) Accuracy(pulses []*Pulse) float64 {
	if len(pulses) == 0 {
		return 0
	}
	ok := 0
	for _, p := range pulses {
		if ch.Classifier.ClassifyFull(p) == p.Prepared {
			ok++
		}
	}
	return float64(ok) / float64(len(pulses))
}
