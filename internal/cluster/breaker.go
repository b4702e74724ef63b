package cluster

import (
	"sync"
	"time"
)

// Breaker states, exported on the per-backend
// artery_cluster_breaker_state_backend<i> gauges.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// breaker is a per-backend circuit breaker with trip/recover hysteresis
// modeled on fault.Tracker's windowed fallback controller: outcomes fill
// a fixed ring, the breaker opens when the windowed failure rate crosses
// the trip threshold (with a minimum sample count, so one early failure
// cannot condemn a cold backend), stays open for a cooldown, then
// half-opens and lets probe attempts through — one success closes it and
// clears the window, one failure re-opens it for another cooldown.
//
// The breaker never blocks the last resort: pickBackend falls back to a
// nominal backend when every candidate is vetoed, so a fully tripped
// fleet degrades to the pre-breaker behavior instead of wedging.
type breaker struct {
	mu     sync.Mutex
	window []bool // outcome ring, true = failure
	n      int    // outcomes recorded (≤ len(window))
	idx    int    // next ring slot
	fails  int    // failures currently in the ring
	state  int
	until  time.Time        // open → half-open transition time
	now    func() time.Time // test seam
}

// The breaker's shape: it judges the last breakerWindow outcomes, trips
// at a breakerTrip failure rate over at least breakerMinSamples of them,
// and stays open for breakerCooldown before half-opening.
const (
	breakerWindow     = 16
	breakerTrip       = 0.5
	breakerMinSamples = 4
	breakerCooldown   = 2 * time.Second
)

func newBreaker() *breaker {
	return &breaker{window: make([]bool, breakerWindow), now: time.Now}
}

// allow reports whether the backend may take an attempt now. It does not
// consume anything: half-open admits probes freely and lets record's
// hysteresis arbitrate (a concurrent probe burst after cooldown is
// harmless — the first failure re-opens, the first success closes).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && !b.now().Before(b.until) {
		b.state = breakerHalfOpen
	}
	return b.state != breakerOpen
}

// record folds one attempt outcome in. It returns true when this outcome
// tripped the breaker open (for the trips counter).
func (b *breaker) record(ok bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		// A stale outcome from an attempt that started before the trip;
		// the cooldown clock, not old traffic, decides recovery.
		return false
	case breakerHalfOpen:
		if ok {
			b.resetLocked()
			b.state = breakerClosed
			return false
		}
		b.state = breakerOpen
		b.until = b.now().Add(breakerCooldown)
		return true
	}
	// Closed: windowed trip check.
	if b.n == len(b.window) {
		if b.window[b.idx] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.window[b.idx] = !ok
	if !ok {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.n >= breakerMinSamples && float64(b.fails)/float64(b.n) >= breakerTrip {
		b.state = breakerOpen
		b.until = b.now().Add(breakerCooldown)
		return true
	}
	return false
}

// current returns the state constant for the gauge.
func (b *breaker) current() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && !b.now().Before(b.until) {
		b.state = breakerHalfOpen
	}
	return b.state
}

func (b *breaker) resetLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.n, b.idx, b.fails = 0, 0, 0
}
