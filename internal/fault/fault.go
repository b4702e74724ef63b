// Package fault is the deterministic fault-injection subsystem: a
// seed-driven model of the degraded scenarios a production feedback stack
// must survive — dropped and corrupted backplane messages, readout-channel
// outages, IQ glitches on captured pulses, feedback-trigger jitter and
// predictor-table corruption.
//
// Determinism contract: all randomness flows through per-shot Sessions,
// each owning one stats.RNG stream derived via SplitN exactly like the
// engine's per-shot physics streams. A Session is used by at most one shot,
// and within that shot strictly sequentially (the engine's worker phase
// happens-before its merge phase for the same shot index), so a faulted run
// is bit-identical at any worker count. Sessions draw nothing when their
// config disables a channel, so a zero-rate injector leaves streams — and
// therefore every downstream number — untouched.
package fault

import (
	"fmt"

	"artery/internal/stats"
)

// Config sets the per-channel fault rates and the graceful-degradation
// policy knobs. The zero value injects nothing.
type Config struct {
	// BackplaneDropRate is the probability that one backplane message hop
	// loses the message (detected by the receiver's timeout).
	BackplaneDropRate float64
	// BackplaneCorruptRate is the probability that one hop corrupts the
	// message (detected by its CRC; treated as a loss and retried).
	BackplaneCorruptRate float64
	// MaxRetries bounds the retry budget of a latency-critical trigger
	// message; past it the trigger is abandoned and the controller degrades
	// to its blocking path for the shot.
	MaxRetries int
	// RetryBackoffNs is the receiver timeout before the first resend; each
	// subsequent retry doubles it (bounded exponential backoff).
	RetryBackoffNs float64

	// ReadoutOutageRate is the probability that a site's readout channel is
	// out for the shot: no trajectory windows arrive and the controller
	// must fall back to a repeated, blocking readout.
	ReadoutOutageRate float64
	// OutagePenaltyNs is the extra latency of that repeated readout.
	OutagePenaltyNs float64

	// IQGlitchRate is the probability that a captured pulse carries one
	// glitch burst (amplifier saturation, clock slip) of GlitchSpanSamples
	// samples at GlitchAmp amplitude.
	IQGlitchRate      float64
	GlitchSpanSamples int
	GlitchAmp         float64

	// TriggerJitterNs is the mean of the exponential jitter added to a
	// feedback trigger's issue time (0 disables jitter draws).
	TriggerJitterNs float64

	// TableCorruptRate is the probability that one predictor-table lookup
	// reads a corrupted entry (bit-flipped Beta counter: the returned
	// probability is complemented).
	TableCorruptRate float64

	// FallbackWindow is the length of the sliding window of per-site bad
	// events (mispredictions, outages, lost triggers, corrupted lookups)
	// the degradation tracker watches.
	FallbackWindow int
	// FallbackTrip is the bad-event rate at which ARTERY stops predicting
	// and takes the blocking Baseline path; FallbackRecover is the lower
	// rate at which it resumes (hysteresis, FallbackRecover < FallbackTrip).
	FallbackTrip    float64
	FallbackRecover float64
}

// DefaultPolicy returns the degradation-policy knobs used throughout the
// repository: 4 trigger retries with 16 ns initial backoff, a repeated
// 2 µs readout on outage, 64-sample full-scale glitch bursts, and a
// 32-event fallback window tripping at 35 % and recovering at 15 %.
func DefaultPolicy() Config {
	return Config{
		MaxRetries:        4,
		RetryBackoffNs:    16,
		OutagePenaltyNs:   2000,
		GlitchSpanSamples: 64,
		GlitchAmp:         8,
		FallbackWindow:    32,
		FallbackTrip:      0.35,
		FallbackRecover:   0.15,
	}
}

// Scaled returns the default policy with every fault rate set from one
// sweep knob: drop/corrupt at rate/4 per hop, outages at rate/10, glitches
// and table corruption at rate, and rate-proportional trigger jitter.
func Scaled(rate float64) Config {
	c := DefaultPolicy()
	c.BackplaneDropRate = rate / 4
	c.BackplaneCorruptRate = rate / 4
	c.ReadoutOutageRate = rate / 10
	c.IQGlitchRate = rate
	c.TableCorruptRate = rate
	c.TriggerJitterNs = 40 * rate
	return c
}

// Validate rejects configurations whose policies cannot terminate or whose
// hysteresis is inverted.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"BackplaneDropRate", c.BackplaneDropRate},
		{"BackplaneCorruptRate", c.BackplaneCorruptRate},
		{"ReadoutOutageRate", c.ReadoutOutageRate},
		{"IQGlitchRate", c.IQGlitchRate},
		{"TableCorruptRate", c.TableCorruptRate},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1)", p.name, p.v)
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: MaxRetries = %d negative", c.MaxRetries)
	}
	if c.FallbackTrip > 0 && c.FallbackRecover >= c.FallbackTrip {
		return fmt.Errorf("fault: FallbackRecover %v must be below FallbackTrip %v",
			c.FallbackRecover, c.FallbackTrip)
	}
	return nil
}

// Enabled reports whether any fault channel is active.
func (c Config) Enabled() bool {
	return c.BackplaneDropRate > 0 || c.BackplaneCorruptRate > 0 ||
		c.ReadoutOutageRate > 0 || c.IQGlitchRate > 0 ||
		c.TriggerJitterNs > 0 || c.TableCorruptRate > 0
}

// Counters tallies injected faults and the degradation machinery's
// responses. The zero value is ready to use.
type Counters struct {
	Drops        int // backplane messages lost in transit
	Corruptions  int // backplane messages failing their CRC
	Retries      int // backplane resends issued
	LostTriggers int // triggers abandoned after MaxRetries
	Outages      int // readout-channel outages
	Glitches     int // IQ glitch bursts injected
	Jitters      int // jittered trigger issues
	TableFaults  int // corrupted predictor-table lookups
	Fallbacks    int // feedbacks served on the degraded blocking path
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Drops += o.Drops
	c.Corruptions += o.Corruptions
	c.Retries += o.Retries
	c.LostTriggers += o.LostTriggers
	c.Outages += o.Outages
	c.Glitches += o.Glitches
	c.Jitters += o.Jitters
	c.TableFaults += o.TableFaults
	c.Fallbacks += o.Fallbacks
}

// Total returns the number of injected fault events (excluding the
// response counters Retries and Fallbacks).
func (c Counters) Total() int {
	return c.Drops + c.Corruptions + c.LostTriggers + c.Outages +
		c.Glitches + c.Jitters + c.TableFaults
}

// Injector is the immutable, shareable fault configuration. Shots obtain
// their deterministic fault streams through Session.
type Injector struct {
	cfg Config
}

// NewInjector validates cfg and wraps it; it panics on an invalid config
// (a bad fault model is a programming error, not a runtime condition).
func NewInjector(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Enabled reports whether the injector injects anything.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.Enabled() }

// Session binds one shot's fault stream. Not safe for concurrent use: a
// session belongs to exactly one shot and is driven sequentially.
func (in *Injector) Session(rng *stats.RNG) *Session {
	return &Session{cfg: in.cfg, rng: rng}
}

// Session is one shot's deterministic fault source. All draws come from
// the session's own RNG stream in a fixed call order, so the same seed
// reproduces the same faults regardless of what other shots do.
type Session struct {
	cfg Config
	rng *stats.RNG
	// C tallies this shot's fault events; the engine snapshots it into the
	// ShotResult when the shot completes.
	C Counters
}

// Config returns the session's fault configuration.
func (s *Session) Config() Config { return s.cfg }

// ReadoutOutage reports whether this site's readout channel is out for the
// shot. No draw happens when outages are disabled.
func (s *Session) ReadoutOutage() bool {
	if s == nil || s.cfg.ReadoutOutageRate <= 0 {
		return false
	}
	if s.rng.Bool(s.cfg.ReadoutOutageRate) {
		s.C.Outages++
		return true
	}
	return false
}

// GlitchIQ injects at most one glitch burst into a captured pulse: a span
// of GlitchSpanSamples samples saturated at GlitchAmp, modeling amplifier
// saturation or a serializer slip. It mutates samples in place and reports
// whether a burst fired. No draw happens when glitches are disabled.
func (s *Session) GlitchIQ(samples []complex128) bool {
	if s == nil || s.cfg.IQGlitchRate <= 0 || len(samples) == 0 {
		return false
	}
	if !s.rng.Bool(s.cfg.IQGlitchRate) {
		return false
	}
	s.C.Glitches++
	span := s.cfg.GlitchSpanSamples
	if span < 1 {
		span = 1
	}
	if span > len(samples) {
		span = len(samples)
	}
	start := s.rng.Intn(len(samples) - span + 1)
	sign := complex(s.cfg.GlitchAmp, 0)
	if s.rng.Bool(0.5) {
		sign = -sign
	}
	for i := start; i < start+span; i++ {
		samples[i] = sign
	}
	return true
}

// TriggerJitter returns the exponential jitter (ns) added to a trigger's
// issue time. No draw happens when jitter is disabled.
func (s *Session) TriggerJitter() float64 {
	if s == nil || s.cfg.TriggerJitterNs <= 0 {
		return 0
	}
	j := s.rng.Exp(s.cfg.TriggerJitterNs)
	if j > 0 {
		s.C.Jitters++
	}
	return j
}

// TableCorruptor returns the per-lookup corruption function for the
// predictor's state table, or nil when table corruption is disabled. A
// corrupted lookup returns the complemented probability — the sign-flipped
// Beta counter a bit flip in the table RAM would produce.
func (s *Session) TableCorruptor() func(float64) float64 {
	if s == nil || s.cfg.TableCorruptRate <= 0 {
		return nil
	}
	return func(p float64) float64 {
		if !s.rng.Bool(s.cfg.TableCorruptRate) {
			return p
		}
		s.C.TableFaults++
		return 1 - p
	}
}

// transmitOnce plays one message attempt over hops backplane hops and
// reports whether it arrived intact. Draws two Bools per hop (drop, then
// corrupt) so the stream layout is fixed.
func (s *Session) transmitOnce(hops int) bool {
	ok := true
	for h := 0; h < hops; h++ {
		if s.rng.Bool(s.cfg.BackplaneDropRate) {
			s.C.Drops++
			ok = false
		}
		if s.rng.Bool(s.cfg.BackplaneCorruptRate) {
			s.C.Corruptions++
			ok = false
		}
	}
	return ok
}

// backplaneActive reports whether transmissions can fail at all.
func (s *Session) backplaneActive() bool {
	return s != nil && (s.cfg.BackplaneDropRate > 0 || s.cfg.BackplaneCorruptRate > 0)
}

// TransmitTrigger sends a latency-critical trigger message over hops
// backplane hops under the bounded-retry policy: up to MaxRetries resends
// with doubling backoff, then the trigger is abandoned. It returns the
// number of retries issued and whether the message got through. No draw
// happens when the backplane channels are disabled.
func (s *Session) TransmitTrigger(hops int) (retries int, delivered bool) {
	if !s.backplaneActive() || hops <= 0 {
		return 0, true
	}
	for attempt := 0; ; attempt++ {
		if s.transmitOnce(hops) {
			return attempt, true
		}
		if attempt >= s.cfg.MaxRetries {
			s.C.LostTriggers++
			return attempt, false
		}
		s.C.Retries++
	}
}

// TransmitReliable sends a non-critical message (the conventional
// end-of-readout branch command) with retry-until-success semantics. The
// attempt count is capped far above any plausible fault rate purely to
// bound the loop; at the cap the link-layer is assumed to escalate and the
// message is counted delivered. It returns the number of retries issued.
func (s *Session) TransmitReliable(hops int) (retries int) {
	if !s.backplaneActive() || hops <= 0 {
		return 0
	}
	const hardCap = 32
	for attempt := 0; attempt < hardCap; attempt++ {
		if s.transmitOnce(hops) {
			return attempt
		}
		s.C.Retries++
	}
	return hardCap
}

// Tracker is the graceful-degradation monitor: a sliding window of
// per-feedback bad events (mispredictions, outages, lost triggers,
// corrupted lookups) with trip/recover hysteresis. While tripped, the
// controller serves feedbacks on the blocking Baseline path; prediction
// resumes once the observed bad rate falls below the recover threshold.
//
// Not safe for concurrent use — it lives inside the (sequentially driven)
// ARTERY controller.
type Tracker struct {
	window    []bool
	next      int
	filled    int
	bad       int
	trip      float64
	recoverAt float64
	tripped   bool
}

// NewTracker builds a tracker; window <= 0 or trip <= 0 yields a tracker
// that never trips (degradation disabled).
func NewTracker(window int, trip, recoverAt float64) *Tracker {
	if window <= 0 || trip <= 0 {
		return &Tracker{}
	}
	return &Tracker{window: make([]bool, window), trip: trip, recoverAt: recoverAt}
}

// Observe records one feedback's bad flag and updates the tripped state.
// The tracker only trips once the window is at least half full, so a
// single early fault cannot park the controller in fallback.
func (t *Tracker) Observe(bad bool) {
	if t == nil || len(t.window) == 0 {
		return
	}
	if t.filled == len(t.window) {
		if t.window[t.next] {
			t.bad--
		}
	} else {
		t.filled++
	}
	t.window[t.next] = bad
	if bad {
		t.bad++
	}
	t.next = (t.next + 1) % len(t.window)

	rate := float64(t.bad) / float64(t.filled)
	if !t.tripped {
		if t.filled >= len(t.window)/2 && rate >= t.trip {
			t.tripped = true
		}
	} else if rate <= t.recoverAt {
		t.tripped = false
	}
}

// Degraded reports whether the controller should serve feedbacks on the
// blocking path.
func (t *Tracker) Degraded() bool { return t != nil && t.tripped }

// BadRate returns the current windowed bad-event rate (0 before any
// observation).
func (t *Tracker) BadRate() float64 {
	if t == nil || t.filled == 0 {
		return 0
	}
	return float64(t.bad) / float64(t.filled)
}
