package readout

import (
	"fmt"
	"math"
	"math/cmplx"

	"artery/internal/stats"
)

// Classifier assigns qubit states to demodulated IQ points by distance to
// calibrated cluster centers — the "state classification" unit of the
// feedback controller (Figure 7c). Separate centers are kept for
// single-window points and for the fully integrated pulse, because their
// normalizations differ.
type Classifier struct {
	cal      *Calibration
	WindowNs float64

	// Window-level cluster centers (means over training windows).
	W0, W1 IQ
	// Full-pulse integrated centers.
	F0, F1 IQ
}

// NewClassifier calibrates a classifier from training pulses with known
// prepared states. windowNs is the demodulation window length (paper
// default: 30 ns). Cluster centers are fit on the integrated IQ of clean
// (non-decayed) pulses; because the cumulative-integral trajectory shares
// the same expected centers at every length (the mean is
// length-normalized), the same pair of centers classifies both the
// mid-readout trajectory points and the final integrated point.
func NewClassifier(cal *Calibration, windowNs float64, train []*Pulse) *Classifier {
	var fit centerFit
	for _, p := range train {
		fit.add(p, cal.IntegratedIQ(p, 0))
	}
	return fit.classifier(cal, windowNs)
}

// centerFit is NewClassifier's cluster-center fit, fed one training pulse
// at a time so that a calibration streaming its corpus (NewChannelWithTable)
// accumulates the same sums in the same order as a fit over a pulse slice.
type centerFit struct {
	f0, f1 IQ
	m0, m1 int
}

// add folds one training pulse, given its integrated IQ, into the fit.
// Centers use only pulses that did not decay mid-readout, the clean
// calibration clusters.
func (f *centerFit) add(p *Pulse, full IQ) {
	if p.Prepared == 1 && math.IsInf(p.DecayedAtNs, 1) {
		f.f1.I += full.I
		f.f1.Q += full.Q
		f.m1++
	} else if p.Prepared == 0 {
		f.f0.I += full.I
		f.f0.Q += full.Q
		f.m0++
	}
}

// classifier returns the classifier with the fitted centers.
func (f *centerFit) classifier(cal *Calibration, windowNs float64) *Classifier {
	if f.m0 == 0 || f.m1 == 0 {
		panic("readout: training set must contain both prepared states")
	}
	c := &Classifier{cal: cal, WindowNs: windowNs}
	c.F0 = IQ{f.f0.I / float64(f.m0), f.f0.Q / float64(f.m0)}
	c.F1 = IQ{f.f1.I / float64(f.m1), f.f1.Q / float64(f.m1)}
	c.W0, c.W1 = c.F0, c.F1
	return c
}

// ClassifyWindow returns the most probable state for one window IQ point.
func (c *Classifier) ClassifyWindow(pt IQ) int {
	if pt.Dist2(c.W1) < pt.Dist2(c.W0) {
		return 1
	}
	return 0
}

// ClassifyFull returns the state of a fully integrated pulse — the
// conventional end-of-readout classification every baseline controller
// waits for, and the ground-truth branch outcome of a shot.
func (c *Classifier) ClassifyFull(p *Pulse) int {
	return c.classifyIntegrated(c.cal.IntegratedIQ(p, 0))
}

// classifyIntegrated returns the state of a full-pulse integrated IQ point.
func (c *Classifier) classifyIntegrated(pt IQ) int {
	if pt.Dist2(c.F1) < pt.Dist2(c.F0) {
		return 1
	}
	return 0
}

// WindowBits classifies the cumulative IQ trajectory at each window
// boundary of the first uptoNs of the pulse and returns the bit sequence
// (earliest first). Later bits integrate more of the pulse and are
// therefore more reliable — the √t SNR growth the predictor exploits.
func (c *Classifier) WindowBits(p *Pulse, uptoNs float64) []int {
	return c.AppendWindowBits(nil, p, uptoNs)
}

// AppendWindowBits is WindowBits appending into dst (which may be nil),
// reusing its capacity — the allocation-free form for per-shot scratch.
// The bits are computed in a single pass over the samples, classifying the
// running cumulative integral at each window boundary; the running sums are
// exactly appendCumulative's, so the bits are bit-identical to the
// two-pass trajectory-then-classify formulation.
func (c *Classifier) AppendWindowBits(dst []int, p *Pulse, uptoNs float64) []int {
	bits, _, _, _ := c.windowBits(dst, p, uptoNs)
	return bits
}

// windowBits is the shared single pass: it appends the per-boundary bits to
// dst and also returns the final running sums and sample limit, letting
// ClassifyFullAndBits finish the full-pulse classification from the same
// traversal.
func (c *Classifier) windowBits(dst []int, p *Pulse, uptoNs float64) (bits []int, sumI, sumQ float64, limit int) {
	w := c.cal.WindowSamples(c.WindowNs)
	limit = c.cal.sampleLimit(len(p.Samples), uptoNs)
	omega := c.cal.Omega()
	ref := complex(1, 0)
	rot := cmplx.Rect(1, omega)
	bits = dst[:0]
	for k := 0; k < limit; k++ {
		cr, sr := real(ref), imag(ref)
		re, im := real(p.Samples[k]), imag(p.Samples[k])
		sumI += re*cr + im*sr
		sumQ += im*cr - re*sr
		ref *= rot
		if (k+1)%w == 0 {
			n := float64(k+1) + 1
			bits = append(bits, c.ClassifyWindow(IQ{I: sumI / n, Q: sumQ / n}))
		}
	}
	return bits, sumI, sumQ, limit
}

// ClassifyFullAndBits computes a pulse's readout record — the full-pulse
// classification and the window bits — in one pass over the samples
// (appending the bits into dst, which may be nil). The cumulative sums at
// the final sample are exactly the integrated-IQ sums — same operations,
// same order — so the record is bit-identical to calling ClassifyFull and
// WindowBits separately, for half the demodulation work.
func (c *Classifier) ClassifyFullAndBits(p *Pulse, dst []int) Record {
	bits, sumI, sumQ, limit := c.windowBits(dst, p, 0)
	norm := float64(limit) + 1
	return Record{Truth: c.classifyIntegrated(IQ{I: sumI / norm, Q: sumQ / norm}), Bits: bits}
}

// StateTable is the pre-generated <trajectory, P_read_1> table of §4: it
// maps the most-probable-state bits of the k most recent demodulation
// windows to the probability that the final readout is 1. Entries for
// shorter prefixes (fewer than k windows seen) are kept in per-length
// sub-tables so prediction can begin at the first window boundary.
//
// Because the trajectory bits classify *cumulative* IQ integrals, the same
// bit pattern carries more evidence later in the readout (the integration
// SNR grows with √t). The table is therefore additionally indexed by a
// coarse time bucket — one bucket per k windows, saturating at
// MaxTimeBuckets — so probabilities are calibrated for the moment the
// branch decider reads them. Without this, late windows would inflate the
// early buckets and the decider would commit overconfident predictions.
//
// The table is trained once at hardware initialization, from the
// training split of the pulse corpus, and only read afterwards.
type StateTable struct {
	K int // number of branch-history registers (paper default: 6)
	// buckets is the time-bucket count (1 = the paper's single table).
	buckets int
	// counters[bucket][length][pattern]
	counters [][][]stats.BetaCounter
}

// MaxTimeBuckets bounds the table's time dimension; prefixes beyond
// K·MaxTimeBuckets windows share the final bucket.
const MaxTimeBuckets = 16

// tableSmoothing is the Beta pseudo-count mass per table bucket. It is
// deliberately stronger than Laplace smoothing: the branch decider compares
// bucket probabilities against thresholds near 0.91, and weakly-populated
// buckets whose estimate fluctuates across the threshold would otherwise
// commit systematically overconfident predictions (a winner's-curse bias —
// the decision rule selects exactly the buckets whose estimation error is
// positive).
const tableSmoothing = 5.0

// NewStateTable returns an empty table with history depth k and the
// default time bucketing and smoothing. It panics for k outside [1, 20].
func NewStateTable(k int) *StateTable {
	return NewStateTableOpts(k, MaxTimeBuckets, tableSmoothing)
}

// NewStateTableOpts returns an empty table with explicit time-bucket count
// (1 reproduces the paper's single time-invariant table — the ablation
// baseline) and Beta-smoothing pseudo-count mass. It panics for k outside
// [1, 20], buckets outside [1, MaxTimeBuckets] or smoothing <= 0.
func NewStateTableOpts(k, buckets int, smoothing float64) *StateTable {
	if k < 1 || k > 20 {
		panic(fmt.Sprintf("readout: unsupported history depth %d", k))
	}
	if buckets < 1 || buckets > MaxTimeBuckets {
		panic(fmt.Sprintf("readout: unsupported bucket count %d", buckets))
	}
	if smoothing <= 0 {
		panic("readout: smoothing must be positive")
	}
	t := &StateTable{K: k, buckets: buckets, counters: make([][][]stats.BetaCounter, buckets)}
	for b := range t.counters {
		t.counters[b] = make([][]stats.BetaCounter, k+1)
		for c := 1; c <= k; c++ {
			t.counters[b][c] = make([]stats.BetaCounter, 1<<uint(c))
			for i := range t.counters[b][c] {
				t.counters[b][c][i] = stats.BetaCounter{Alpha: smoothing, Beta: smoothing}
			}
		}
	}
	return t
}

// key packs the window-bit prefix into (time bucket, length, index): the
// pattern is the last up-to-K bits; the bucket advances every K windows.
func (t *StateTable) key(bits []int) (bucket, length, idx int) {
	n := len(bits)
	bucket = (n - 1) / t.K
	if bucket >= t.buckets {
		bucket = t.buckets - 1
	}
	length = n
	if length > t.K {
		bits = bits[length-t.K:]
		length = t.K
	}
	for _, b := range bits {
		idx = idx<<1 | (b & 1)
	}
	return bucket, length, idx
}

// Update records one observation: the window-bit prefix seen so far and the
// final readout outcome of that shot.
func (t *StateTable) Update(bits []int, finalOutcome int) {
	if len(bits) == 0 {
		return
	}
	b, l, idx := t.key(bits)
	t.counters[b][l][idx].Observe(finalOutcome == 1)
}

// trainShot fills the table from one complete training shot: every prefix
// of the shot's window bits is attributed to its final outcome, mirroring
// the paper's offline pre-generation.
func (t *StateTable) trainShot(bits []int, outcome int) {
	for n := 1; n <= len(bits); n++ {
		t.Update(bits[:n], outcome)
	}
}

// PRead1 returns P_read_1 for the current window-bit prefix. An empty
// prefix returns the uninformative 0.5.
func (t *StateTable) PRead1(bits []int) float64 {
	if len(bits) == 0 {
		return 0.5
	}
	b, l, idx := t.key(bits)
	return t.counters[b][l][idx].P()
}

// SizeBytes reports the BRAM footprint of the hardware table: the paper's
// 2^(k-3)·(k+16)-byte sizing (k pattern bits plus a 16-bit fixed-point
// probability per row) replicated across the time buckets required by the
// cumulative-trajectory calibration.
func (t *StateTable) SizeBytes() int {
	k := t.K
	return t.buckets * (1 << uint(k)) * (k + 16) / 8
}
