package readout

import (
	"math"
	"math/cmplx"
	"testing"

	"artery/internal/stats"
)

// synthesizeScalarRef replicates the pre-template synthesis loop exactly:
// incremental phasor plus two scalar Norm draws per sample, for any pulse
// (clean or decayed). It is the frozen reference SynthesizeInto must match
// bit for bit.
func synthesizeScalarRef(c *Calibration, state int, rng *stats.RNG) *Pulse {
	n := c.Samples()
	p := &Pulse{Samples: make([]complex128, n), Prepared: state, DecayedAtNs: math.Inf(1)}
	if state == 1 && !math.IsInf(c.T1Ns, 1) {
		if t := rng.Exp(c.T1Ns); t < c.DurationNs {
			p.DecayedAtNs = t
		}
	}
	omega := c.Omega()
	rot := cmplx.Rect(1, omega)
	phase0 := cmplx.Rect(c.Amp, -c.PhaseShift)
	phase1 := cmplx.Rect(c.Amp, +c.PhaseShift)
	cur := phase0
	if state == 1 {
		cur = phase1
	}
	excited := state == 1
	for i := 0; i < n; i++ {
		if excited && float64(i)/c.SampleRateGSPS >= p.DecayedAtNs {
			cur = phase0 * cmplx.Rect(1, omega*float64(i))
			excited = false
		}
		noise := complex(rng.Norm()*c.NoiseSigma, rng.Norm()*c.NoiseSigma)
		p.Samples[i] = cur + noise
		cur *= rot
	}
	return p
}

func pulsesBitEqual(a, b *Pulse) bool {
	if a.Prepared != b.Prepared ||
		math.Float64bits(a.DecayedAtNs) != math.Float64bits(b.DecayedAtNs) ||
		len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if math.Float64bits(real(a.Samples[i])) != math.Float64bits(real(b.Samples[i])) ||
			math.Float64bits(imag(a.Samples[i])) != math.Float64bits(imag(b.Samples[i])) {
			return false
		}
	}
	return true
}

// TestSynthesizeTemplateBitIdenticalToScalar pins the cached-template +
// bulk-noise synthesis against the original scalar loop, over enough
// prepared-|1⟩ shots to hit the T1-decay tail (which takes the scalar
// path) as well as the clean template path, for both states.
func TestSynthesizeTemplateBitIdenticalToScalar(t *testing.T) {
	c := DefaultCalibration()
	c.T1Ns = 20_000 // ~10% decay probability: the tail shows up in 200 shots
	decayed := 0
	rngA := stats.NewRNG(77)
	rngB := stats.NewRNG(77)
	for shot := 0; shot < 200; shot++ {
		state := shot % 2
		got := c.Synthesize(state, rngA)
		want := synthesizeScalarRef(c, state, rngB)
		if !pulsesBitEqual(got, want) {
			t.Fatalf("shot %d (state %d, decayed=%v): template synthesis diverged bitwise",
				shot, state, !math.IsInf(got.DecayedAtNs, 1))
		}
		if !math.IsInf(got.DecayedAtNs, 1) {
			decayed++
		}
	}
	if decayed == 0 {
		t.Fatal("no decayed pulse exercised the scalar fallback path")
	}
}

// TestSynthesizeIntoMatchesSynthesize checks the pooled form against the
// allocating form, including reuse of a dirty recycled record.
func TestSynthesizeIntoMatchesSynthesize(t *testing.T) {
	c := DefaultCalibration()
	rngA := stats.NewRNG(5)
	rngB := stats.NewRNG(5)
	reused := &Pulse{Samples: make([]complex128, c.Samples()), Prepared: 1, DecayedAtNs: 42}
	for i := range reused.Samples {
		reused.Samples[i] = complex(1e9, -1e9) // stale garbage must vanish
	}
	for shot := 0; shot < 20; shot++ {
		state := shot % 2
		fresh := c.Synthesize(state, rngA)
		c.SynthesizeInto(reused, state, rngB)
		if !pulsesBitEqual(fresh, reused) {
			t.Fatalf("shot %d: SynthesizeInto diverged from Synthesize", shot)
		}
	}
}

// TestClassifyFullAndBitsMatchesSeparateCalls pins the one-pass fused
// demodulation against ClassifyFull + WindowBits called separately.
func TestClassifyFullAndBitsMatchesSeparateCalls(t *testing.T) {
	cal := DefaultCalibration()
	rng := stats.NewRNG(9)
	cl := NewClassifier(cal, 30, trainingPulses(cal, 200, stats.NewRNG(1)))
	dst := make([]int, 0, 128)
	for shot := 0; shot < 50; shot++ {
		p := cal.Synthesize(shot%2, rng)
		wantTruth := cl.ClassifyFull(p)
		wantBits := cl.WindowBits(p, 0)
		got := cl.ClassifyFullAndBits(p, dst[:0])
		if got.Truth != wantTruth {
			t.Fatalf("shot %d: fused truth %d != separate %d", shot, got.Truth, wantTruth)
		}
		if len(got.Bits) != len(wantBits) {
			t.Fatalf("shot %d: fused %d bits != separate %d", shot, len(got.Bits), len(wantBits))
		}
		for i := range wantBits {
			if got.Bits[i] != wantBits[i] {
				t.Fatalf("shot %d: bit %d differs", shot, i)
			}
		}
	}
}

// trainingPulses synthesizes a balanced training set.
func trainingPulses(cal *Calibration, n int, rng *stats.RNG) []*Pulse {
	out := make([]*Pulse, n)
	for i := range out {
		out[i] = cal.Synthesize(i%2, rng)
	}
	return out
}

// TestSynthesizeIntoZeroAllocsWarm asserts the pooled synthesis hot path
// allocates nothing once the carrier template is cached, for the dominant
// (non-decayed) pulse population.
func TestSynthesizeIntoZeroAllocsWarm(t *testing.T) {
	c := DefaultCalibration()
	c.T1Ns = math.Inf(1) // no decay: every shot takes the template path
	rng := stats.NewRNG(4)
	p := &Pulse{Samples: make([]complex128, c.Samples())}
	c.SynthesizeInto(p, 1, rng) // warm the template cache
	if n := testing.AllocsPerRun(20, func() { c.SynthesizeInto(p, 1, rng) }); n != 0 {
		t.Fatalf("warm SynthesizeInto allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkReadoutPulseGen measures the synthesis hot path — the dominant
// cost of every engine shot (~80% of CPU before template caching).
func BenchmarkReadoutPulseGen(b *testing.B) {
	c := DefaultCalibration()
	rng := stats.NewRNG(2)
	b.Run("into-pooled", func(b *testing.B) {
		p := &Pulse{Samples: make([]complex128, c.Samples())}
		c.SynthesizeInto(p, 1, rng) // warm template
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SynthesizeInto(p, i&1, rng)
		}
	})
	b.Run("alloc-per-shot", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Synthesize(i&1, rng)
		}
	})
}

// BenchmarkClassifyFullAndBits measures the fused one-pass demodulation
// against the separate two-pass calls it replaced.
func BenchmarkClassifyFullAndBits(b *testing.B) {
	cal := DefaultCalibration()
	cl := NewClassifier(cal, 30, trainingPulses(cal, 100, stats.NewRNG(1)))
	p := cal.Synthesize(1, stats.NewRNG(2))
	dst := make([]int, 0, 128)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = cl.ClassifyFullAndBits(p, dst[:0]).Bits
		}
	})
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = cl.ClassifyFull(p)
			dst = cl.AppendWindowBits(dst[:0], p, 0)
		}
	})
}
