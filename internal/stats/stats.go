package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// BetaCounter tracks Bernoulli outcomes with a Beta(α, β) prior and yields
// the posterior mean probability of outcome "1". It is the datatype behind
// the historical branch-probability feature P_history_1 of the ARTERY
// predictor: each feedback site owns one counter, updated after every shot.
type BetaCounter struct {
	Alpha float64 // prior + observed count of ones
	Beta  float64 // prior + observed count of zeros
}

// NewBetaCounter returns a counter with a uniform Beta(1, 1) prior.
func NewBetaCounter() *BetaCounter { return &BetaCounter{Alpha: 1, Beta: 1} }

// Observe records one Bernoulli outcome.
func (b *BetaCounter) Observe(one bool) {
	if one {
		b.Alpha++
	} else {
		b.Beta++
	}
}

// P returns the posterior mean probability of outcome 1.
func (b *BetaCounter) P() float64 {
	return b.Alpha / (b.Alpha + b.Beta)
}

// N returns the number of observed outcomes (excluding the prior mass).
func (b *BetaCounter) N() float64 { return b.Alpha + b.Beta - 2 }

// Histogram is a fixed-width binning of float64 samples, used by the
// experiment harness to report distributions (e.g. Figure 15b).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram returns a histogram over [lo, hi) with n bins.
// It panics for n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records x, clamping out-of-range samples into the edge bins.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// String renders a compact textual histogram.
func (h *Histogram) String() string {
	out := ""
	for i, c := range h.Counts {
		out += fmt.Sprintf("%8.4f %d\n", h.BinCenter(i), c)
	}
	return out
}

// RunningMean accumulates a streaming mean without storing samples.
type RunningMean struct {
	n   int
	sum float64
}

// Add records one sample.
func (r *RunningMean) Add(x float64) { r.n++; r.sum += x }

// Mean returns the current mean (0 if no samples).
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// N returns the number of samples recorded.
func (r *RunningMean) N() int { return r.n }

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs at the given level (e.g. 0.95), using resamples draws.
// Experiments report it so readers can judge whether a gap is real at the
// configured shot count.
func BootstrapCI(xs []float64, level float64, resamples int, rng *RNG) (lo, hi float64) {
	if len(xs) == 0 || level <= 0 || level >= 1 || resamples < 10 {
		panic("stats: invalid bootstrap parameters")
	}
	means := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[rng.Intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	alpha := (1 - level) / 2
	return Quantile(means, alpha), Quantile(means, 1-alpha)
}
