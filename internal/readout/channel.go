package readout

import (
	"sync"

	"artery/internal/fault"
	"artery/internal/stats"
	"artery/internal/trace"
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
// Concurrency contract: a channel is read-only once built — Read,
// Synthesize, Classify*, WindowBits and PRead1 never mutate it — so one
// Channel may be shared by all of an engine's shot workers.
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

// Record is one feedback site's readout as the state-classification unit
// reports it (Figure 7c): the full-pulse classification and the window
// bits. It is everything downstream of the unit — controller and
// predictor — ever sees of a readout; the waveform stays here.
type Record struct {
	// Truth is the full-pulse classification: the outcome the hardware
	// acts on, and the predictor's fallback when it never commits.
	Truth int
	// Bits classifies the cumulative IQ integral at each window boundary,
	// earliest first (Classifier.WindowBits of the whole pulse).
	Bits []int
}

// Windows returns the number of window bits in one of the channel's
// records.
func (ch *Channel) Windows() int {
	return ch.Cal.sampleLimit(ch.Cal.Samples(), 0) / ch.Cal.WindowSamples(ch.Classifier.WindowNs)
}

// readScratch recycles Read's pulse records across shots and channels; a
// 2 µs capture at 1 GSPS is 32 KiB of samples. SynthesizeInto overwrites
// every sample and grows a record that is too short, so any pooled record
// serves any channel.
var readScratch = sync.Pool{New: func() any { return new(Pulse) }}

// Read captures one readout of a qubit in state (0 or 1) and returns its
// record. It synthesizes the pulse from rng, lets sess inject an IQ glitch
// into the captured samples (where an amplifier spike lands on hardware,
// after the physics draws), demodulates the pulse once, and records the
// classification into span as a StageClassifyFull annotation over the
// readout window. sess and span may be nil.
//
// The bits are appended to dst[:0], so a record owns dst's backing array
// and stays valid after Read returns. With cap(dst) >= Windows() a warm
// Read allocates nothing.
func (ch *Channel) Read(state int, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan, dst []int) Record {
	p := readScratch.Get().(*Pulse)
	ch.Cal.SynthesizeInto(p, state, rng)
	sess.GlitchIQ(p.Samples)
	r := ch.Classifier.ClassifyFullAndBits(p, dst)
	readScratch.Put(p)
	span.Annotate(trace.StageClassifyFull, 0, ch.Cal.DurationNs, r.Truth, 0)
	return r
}
