// Package readout models the dispersive readout chain of a superconducting
// qubit at the waveform level and implements the signal-processing blocks
// ARTERY's predictor consumes: the windowed I/Q demodulation of §4, IQ
// trajectory vectorization, and the pre-generated <trajectory, P_read_1>
// state table.
//
// Physics substitute (see DESIGN.md): the readout resonator's dispersive
// shift maps the qubit state onto the phase of the captured carrier, so a
// state-s pulse is  a_i = A·e^{i(ω·i ± φ)} + n_i  with complex AWGN n_i.
// Integrating longer windows grows SNR like √t, which is why early windows
// give noisy state estimates that sharpen as the readout progresses — the
// exact structure the trajectory predictor exploits. A |1⟩ qubit may relax
// mid-readout (rate 1/T1), bending its trajectory toward the |0⟩ cluster,
// which is the dominant asymmetric error at 2 µs readouts.
package readout

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"artery/internal/stats"
)

// Calibration holds the physical parameters of one readout channel.
type Calibration struct {
	SampleRateGSPS float64 // ADC rate (paper: 1 GSPS)
	CarrierCycles  float64 // IF carrier frequency in cycles/sample (ω/2π)
	Amp            float64 // carrier amplitude (arbitrary units)
	PhaseShift     float64 // ± dispersive phase shift, radians
	NoiseSigma     float64 // AWGN std-dev per quadrature per sample
	T1Ns           float64 // qubit relaxation time during readout
	DurationNs     float64 // readout pulse length (paper: 2 µs)
}

// DefaultCalibration returns the channel model tuned to the paper's device:
// 1 GSPS ADC, 2 µs readout, T1 = 125 µs, and an SNR putting one 30 ns
// demodulation window at ~70 % single-window classification accuracy while
// the full pulse reaches the calibrated 99 % readout fidelity.
func DefaultCalibration() *Calibration {
	return &Calibration{
		SampleRateGSPS: 1.0,
		CarrierCycles:  0.05,
		Amp:            1.0,
		PhaseShift:     0.15,
		NoiseSigma:     2.5,
		T1Ns:           125_000,
		DurationNs:     2000,
	}
}

// Samples returns the ADC sample count of the full readout pulse.
func (c *Calibration) Samples() int {
	return int(math.Round(c.DurationNs * c.SampleRateGSPS))
}

// Omega returns the carrier angular frequency per sample (ω in the paper's
// demodulation equations).
func (c *Calibration) Omega() float64 { return 2 * math.Pi * c.CarrierCycles }

// Pulse is one captured readout record.
type Pulse struct {
	Samples []complex128
	// Prepared is the qubit state at readout start.
	Prepared int
	// DecayedAtNs is the time at which a prepared |1⟩ relaxed to |0⟩
	// mid-readout, or +Inf when it survived (always +Inf for Prepared=0).
	DecayedAtNs float64
}

// carrierKey identifies one cached clean-carrier waveform: everything the
// deterministic (noise- and relaxation-free) part of a pulse depends on.
type carrierKey struct {
	cyc, amp, phase float64
	state, n        int
}

// carrierCache holds clean-carrier templates across all calibrations.
// Calibration structs are copied by value throughout the repo (experiment
// sweeps, for one), so the cache is a package-level map keyed by the
// carrier parameters rather than a field that a copy could go stale on or
// a lock a `c := *base` copy would trip vet over. Reads take an RLock — a
// map lookup against a 2000-sample synthesis loop — and the size cap makes
// pathological sweeps over thousands of distinct calibrations degrade to
// uncached builds instead of leaking.
var (
	carrierMu    sync.RWMutex
	carrierCache = map[carrierKey][]complex128{}
)

const carrierCacheMax = 256

// buildCarrier materializes the clean carrier with the exact incremental-
// phasor recurrence of the synthesis loop (cur *= rot), so template samples
// are bit-identical to the ones the loop would produce.
func buildCarrier(c *Calibration, state, n int) []complex128 {
	omega := c.Omega()
	rot := cmplx.Rect(1, omega)
	cur := cmplx.Rect(c.Amp, -c.PhaseShift)
	if state == 1 {
		cur = cmplx.Rect(c.Amp, +c.PhaseShift)
	}
	t := make([]complex128, n)
	for i := range t {
		t[i] = cur
		cur *= rot
	}
	return t
}

// carrierTemplate returns the cached clean carrier for one prepared state.
// The returned slice is shared and must be treated as read-only.
func carrierTemplate(c *Calibration, state, n int) []complex128 {
	key := carrierKey{cyc: c.CarrierCycles, amp: c.Amp, phase: c.PhaseShift, state: state, n: n}
	carrierMu.RLock()
	t, ok := carrierCache[key]
	carrierMu.RUnlock()
	if ok {
		return t
	}
	t = buildCarrier(c, state, n)
	carrierMu.Lock()
	if cached, ok := carrierCache[key]; ok {
		t = cached // lost the build race: share the winner
	} else if len(carrierCache) < carrierCacheMax {
		carrierCache[key] = t
	}
	carrierMu.Unlock()
	return t
}

// Synthesize produces one readout pulse record for a qubit prepared in
// state (0 or 1), sampling mid-readout relaxation and per-sample noise.
func (c *Calibration) Synthesize(state int, rng *stats.RNG) *Pulse {
	p := &Pulse{}
	c.SynthesizeInto(p, state, rng)
	return p
}

// SynthesizeInto is Synthesize writing into a caller-owned record:
// p.Samples is resized in place, so a recycled pulse synthesizes without
// allocating. The RNG draw sequence — one
// optional relaxation draw, then two normal deviates per sample — and every
// output bit match Synthesize exactly.
//
// The deterministic carrier of a clean (non-decayed) pulse is shot-
// invariant, so it comes from a cached template and only the noise is
// generated per shot (via stats.RNG.AddComplexNorm, which replicates the
// scalar loop's draw stream). Decayed pulses — the rare T1-relaxation tail,
// ~1.6% of prepared-|1⟩ shots at the paper's 2 µs / 125 µs operating point
// — re-anchor the carrier mid-pulse at a random sample, so they keep the
// original scalar loop.
func (c *Calibration) SynthesizeInto(p *Pulse, state int, rng *stats.RNG) {
	if state != 0 && state != 1 {
		panic(fmt.Sprintf("readout: invalid state %d", state))
	}
	n := c.Samples()
	if cap(p.Samples) < n {
		p.Samples = make([]complex128, n)
	}
	p.Samples = p.Samples[:n]
	p.Prepared = state
	p.DecayedAtNs = math.Inf(1)
	if state == 1 && !math.IsInf(c.T1Ns, 1) {
		if t := rng.Exp(c.T1Ns); t < c.DurationNs {
			p.DecayedAtNs = t
		}
	}
	if math.IsInf(p.DecayedAtNs, 1) {
		rng.AddComplexNorm(p.Samples, carrierTemplate(c, state, n), c.NoiseSigma)
		return
	}
	omega := c.Omega()
	// Incremental phasor: rot = e^{iω}, carrier advances by one multiply per
	// sample instead of a trig call (re-anchored at the decay edge).
	rot := cmplx.Rect(1, omega)
	phase0 := cmplx.Rect(c.Amp, -c.PhaseShift)
	phase1 := cmplx.Rect(c.Amp, +c.PhaseShift)
	cur := phase1
	excited := true
	for i := 0; i < n; i++ {
		if excited && float64(i)/c.SampleRateGSPS >= p.DecayedAtNs {
			// Relaxation: re-anchor the carrier with the |0⟩ phase offset.
			cur = phase0 * cmplx.Rect(1, omega*float64(i))
			excited = false
		}
		noise := complex(rng.Norm()*c.NoiseSigma, rng.Norm()*c.NoiseSigma)
		p.Samples[i] = cur + noise
		cur *= rot
	}
}

// IQ is one demodulated point in the IQ plane.
type IQ struct{ I, Q float64 }

// Sub returns the componentwise difference a-b.
func (a IQ) Sub(b IQ) IQ { return IQ{a.I - b.I, a.Q - b.Q} }

// Dist2 returns the squared Euclidean distance between two IQ points.
func (a IQ) Dist2(b IQ) float64 {
	di, dq := a.I-b.I, a.Q-b.Q
	return di*di + dq*dq
}

// Demodulate computes the paper's windowed I/Q values over samples
// [start, start+window) with carrier frequency omega (radians/sample):
//
//	I = 1/(L+1) Σ (a_i.real·cos(ωi) + a_i.imag·sin(ωi))
//	Q = 1/(L+1) Σ (a_i.imag·cos(ωi) − a_i.real·sin(ωi))
//
// The index i inside the trigonometric terms is the absolute sample index,
// keeping windows phase-coherent with the carrier.
func Demodulate(samples []complex128, start, window int, omega float64) IQ {
	if start < 0 || window <= 0 || start+window > len(samples) {
		panic(fmt.Sprintf("readout: demodulation window [%d,%d) out of range 0..%d",
			start, start+window, len(samples)))
	}
	var i, q float64
	// Incremental reference phasor e^{iωk}, advanced by one complex multiply
	// per sample.
	ref := cmplx.Rect(1, omega*float64(start))
	rot := cmplx.Rect(1, omega)
	for k := start; k < start+window; k++ {
		c, s := real(ref), imag(ref)
		re, im := real(samples[k]), imag(samples[k])
		i += re*c + im*s
		q += im*c - re*s
		ref *= rot
	}
	norm := float64(window) + 1
	return IQ{I: i / norm, Q: q / norm}
}

// WindowSamples converts a window length in ns to ADC samples.
func (c *Calibration) WindowSamples(windowNs float64) int {
	w := int(math.Round(windowNs * c.SampleRateGSPS))
	if w < 1 {
		w = 1
	}
	return w
}

// Trajectory demodulates the pulse into consecutive windows of windowNs and
// returns the per-window IQ points for the first uptoNs of the pulse
// (uptoNs <= 0 means the full pulse). Partial trailing windows are dropped,
// matching the hardware's stream adapter.
func (c *Calibration) Trajectory(p *Pulse, windowNs, uptoNs float64) []IQ {
	w := c.WindowSamples(windowNs)
	limit := c.sampleLimit(len(p.Samples), uptoNs)
	var out []IQ
	for start := 0; start+w <= limit; start += w {
		out = append(out, Demodulate(p.Samples, start, w, c.Omega()))
	}
	return out
}

// appendCumulative appends to dst the cumulative IQ integral evaluated at
// every windowNs boundary of the pulse — point i is the demodulation of
// samples [0, (i+1)·w) — and returns it with the pulse's IntegratedIQ. This
// is the trajectory of Figure 5 (b): points drift toward the state's
// cluster center as the integration SNR grows with √t. One pass over the
// samples yields both: the running sums at the last sample are Demodulate's
// over the whole pulse — same operations, same order — so the integrated
// point is bit-identical to IntegratedIQ's.
func (c *Calibration) appendCumulative(dst []IQ, p *Pulse, windowNs float64) (points []IQ, full IQ) {
	w := c.WindowSamples(windowNs)
	limit := c.sampleLimit(len(p.Samples), 0)
	omega := c.Omega()
	ref := complex(1, 0)
	rot := cmplx.Rect(1, omega)
	var sumI, sumQ float64
	points = dst
	for k := 0; k < limit; k++ {
		cr, sr := real(ref), imag(ref)
		re, im := real(p.Samples[k]), imag(p.Samples[k])
		sumI += re*cr + im*sr
		sumQ += im*cr - re*sr
		ref *= rot
		if (k+1)%w == 0 {
			n := float64(k+1) + 1
			points = append(points, IQ{I: sumI / n, Q: sumQ / n})
		}
	}
	norm := float64(limit) + 1
	return points, IQ{I: sumI / norm, Q: sumQ / norm}
}

// IntegratedIQ demodulates the entire first uptoNs of the pulse as a single
// window — the matched-filter point used for final state classification.
func (c *Calibration) IntegratedIQ(p *Pulse, uptoNs float64) IQ {
	return Demodulate(p.Samples, 0, c.sampleLimit(len(p.Samples), uptoNs), c.Omega())
}

// sampleLimit is the number of samples in the first uptoNs of an n-sample
// pulse; uptoNs <= 0 or beyond the readout means the whole pulse.
func (c *Calibration) sampleLimit(n int, uptoNs float64) int {
	if uptoNs <= 0 || uptoNs > c.DurationNs {
		uptoNs = c.DurationNs
	}
	if limit := int(uptoNs * c.SampleRateGSPS); limit < n {
		return limit
	}
	return n
}

// ExpectedCenters returns the noise-free demodulated IQ centers for states
// 0 and 1 (no relaxation), the analytic anchors the classifier calibrates
// around.
func (c *Calibration) ExpectedCenters() (c0, c1 IQ) {
	// With a_i = A e^{i(ωi+φ)}, demodulation yields approximately
	// (A cos φ, A sin φ) (up to the 1/(L+1) vs 1/L normalization).
	return IQ{c.Amp * math.Cos(-c.PhaseShift), c.Amp * math.Sin(-c.PhaseShift)},
		IQ{c.Amp * math.Cos(c.PhaseShift), c.Amp * math.Sin(c.PhaseShift)}
}
