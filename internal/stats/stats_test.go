package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	saw := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		saw[r.Uint64()] = true
	}
	if len(saw) < 10 {
		t.Fatalf("zero-seeded RNG produced repeats: %d unique of 10", len(saw))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		ss += x * x
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	if m := sum / n; math.Abs(m-3.0) > 0.05 {
		t.Fatalf("exp mean = %v, want ~3", m)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	for _, mean := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", mean)
				}
			}()
			NewRNG(1).Exp(mean)
		}()
	}
}

// TestRNGBoolDrawContract pins Bool to exactly one Float64 draw compared
// against p: the quantum backends' determinism contract counts draws, so
// Bool(0) and Bool(1) must still consume one.
func TestRNGBoolDrawContract(t *testing.T) {
	a, b := NewRNG(23), NewRNG(23)
	for i, p := range []float64{0, 1, 0.3, 0.5, 0.999} {
		got := a.Bool(p)
		if want := b.Float64() < p; got != want {
			t.Fatalf("call %d: Bool(%v) = %v, want %v", i, p, got, want)
		}
	}
	r := NewRNG(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v, want ~0.3", f)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collide %d times", same)
	}
}

func TestSplitNStreamsDoNotCollide(t *testing.T) {
	// The engine hands one SplitN stream to every shot worker; any overlap
	// between streams would correlate shots. Draw 1e5 values from each of 8
	// streams and require every value to be globally unique (for 8e5 draws
	// of a 64-bit generator a single collision is ~2^-24 unlikely, so one
	// is evidence of stream overlap, not chance).
	const streams, draws = 8, 100_000
	rs := NewRNG(29).SplitN(streams)
	if len(rs) != streams {
		t.Fatalf("SplitN returned %d streams, want %d", len(rs), streams)
	}
	seen := make(map[uint64]int, streams*draws)
	for si, r := range rs {
		for i := 0; i < draws; i++ {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d collide on %#x after <= %d draws", prev, si, v, draws)
			}
			seen[v] = si
		}
	}
}

func TestSplitNDeterministicAndConsuming(t *testing.T) {
	// SplitN(n) must consume exactly n draws, so callers that keep using
	// the parent afterwards stay reproducible.
	a, b := NewRNG(31), NewRNG(31)
	as := a.SplitN(5)
	for i := 0; i < 5; i++ {
		b.Uint64()
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN(5) did not consume exactly 5 parent draws")
	}
	c := NewRNG(31).SplitN(5)
	for i := range as {
		if as[i].Uint64() != c[i].Uint64() {
			t.Fatalf("stream %d not reproducible across SplitN calls", i)
		}
	}
	if got := NewRNG(1).SplitN(0); len(got) != 0 {
		t.Fatal("SplitN(0) should return an empty slice")
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if sd := StdDev(xs); math.Abs(sd-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", sd, math.Sqrt(32.0/7.0))
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("Variance of single sample != 0")
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("StdDev of single sample != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 {
		t.Fatal("Min wrong")
	}
	if Max(xs) != 5 {
		t.Fatal("Max wrong")
	}
}

func TestBetaCounter(t *testing.T) {
	b := NewBetaCounter()
	if p := b.P(); p != 0.5 {
		t.Fatalf("prior P = %v, want 0.5", p)
	}
	for i := 0; i < 9; i++ {
		b.Observe(true)
	}
	b.Observe(false)
	// Posterior mean = (1+9)/(2+10) = 10/12
	if p := b.P(); math.Abs(p-10.0/12.0) > 1e-12 {
		t.Fatalf("P = %v, want %v", p, 10.0/12.0)
	}
	if b.N() != 10 {
		t.Fatalf("N = %v, want 10", b.N())
	}
}

func TestBetaCounterBoundsProperty(t *testing.T) {
	f := func(obs []bool) bool {
		b := NewBetaCounter()
		for _, o := range obs {
			b.Observe(o)
		}
		p := b.P()
		return p > 0 && p < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(0.05)
	h.Add(0.05)
	h.Add(0.95)
	h.Add(-5)  // clamps to first bin
	h.Add(2.0) // clamps to last bin
	if h.Counts[0] != 3 {
		t.Fatalf("bin0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[9] != 2 {
		t.Fatalf("bin9 = %d, want 2", h.Counts[9])
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	if c := h.BinCenter(0); math.Abs(c-0.05) > 1e-12 {
		t.Fatalf("BinCenter(0) = %v", c)
	}
	lines := strings.Split(h.String(), "\n")
	if len(lines) != 11 || lines[0] != "  0.0500 3" || lines[9] != "  0.9500 2" || lines[10] != "" {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{{0, 1, 0}, {0, 1, -3}, {1, 1, 4}, {2, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v, %v, %d) did not panic", c.lo, c.hi, c.n)
				}
			}()
			NewHistogram(c.lo, c.hi, c.n)
		}()
	}
}

func TestRunningMean(t *testing.T) {
	var r RunningMean
	if r.Mean() != 0 {
		t.Fatal("empty RunningMean not 0")
	}
	for _, x := range []float64{1, 2, 3, 4} {
		r.Add(x)
	}
	if r.Mean() != 2.5 || r.N() != 4 {
		t.Fatalf("RunningMean = %v n=%d", r.Mean(), r.N())
	}
}

func TestQuantileMatchesMeanProperty(t *testing.T) {
	// Median of a symmetric two-point distribution equals its mean.
	f := func(a float64) bool {
		if math.IsNaN(a) || math.Abs(a) > 1e15 {
			return true // avoid float cancellation at extreme magnitudes
		}
		xs := []float64{a - 1, a + 1}
		return math.Abs(Quantile(xs, 0.5)-Mean(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapCIBracketsMean(t *testing.T) {
	rng := NewRNG(100)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormMeanStd(10, 2)
	}
	lo, hi := BootstrapCI(xs, 0.95, 500, rng)
	m := Mean(xs)
	if !(lo < m && m < hi) {
		t.Fatalf("CI [%v, %v] does not bracket mean %v", lo, hi, m)
	}
	// Width shrinks with more data.
	big := make([]float64, 2000)
	for i := range big {
		big[i] = rng.NormMeanStd(10, 2)
	}
	lo2, hi2 := BootstrapCI(big, 0.95, 500, rng)
	if hi2-lo2 >= hi-lo {
		t.Fatalf("CI did not shrink with more data: %v vs %v", hi2-lo2, hi-lo)
	}
}

func TestBootstrapCIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid bootstrap params accepted")
		}
	}()
	BootstrapCI(nil, 0.95, 100, NewRNG(1))
}

// Variance returns the unbiased sample variance of xs
// (0 for fewer than two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
