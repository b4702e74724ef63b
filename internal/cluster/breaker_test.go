package cluster

import (
	"testing"
	"time"
)

// TestBreakerStateMachine walks one breaker through its fixed shape on a
// test clock: the breakerMinSamples floor, the breakerTrip rate over the
// breakerWindow ring, the breakerCooldown, and the half-open hysteresis.
func TestBreakerStateMachine(t *testing.T) {
	start := func() (*breaker, *time.Time) {
		clock := time.Unix(1000, 0)
		b := newBreaker()
		b.now = func() time.Time { return clock }
		return b, &clock
	}
	// feed records each outcome (true = success) and counts the trips.
	feed := func(b *breaker, oks ...bool) (trips int) {
		for _, ok := range oks {
			if b.record(ok) {
				trips++
			}
		}
		return trips
	}
	repeat := func(ok bool, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = ok
		}
		return out
	}
	trip := func(t *testing.T, b *breaker) {
		t.Helper()
		if trips := feed(b, repeat(false, breakerMinSamples)...); trips != 1 || b.current() != breakerOpen {
			t.Fatalf("%d failures: %d trips, state %d; want 1 trip, open", breakerMinSamples, trips, b.current())
		}
	}

	t.Run("min-samples", func(t *testing.T) {
		b, _ := start()
		if trips := feed(b, repeat(false, breakerMinSamples-1)...); trips != 0 || !b.allow() {
			t.Fatalf("%d failures tripped a cold backend", breakerMinSamples-1)
		}
		if trips := feed(b, false); trips != 1 || b.allow() {
			t.Fatalf("failure %d did not trip the breaker", breakerMinSamples)
		}
	})

	t.Run("trip-rate", func(t *testing.T) {
		b, _ := start()
		k := breakerMinSamples
		feed(b, repeat(true, k)...)
		if trips := feed(b, repeat(false, k-1)...); trips != 0 || !b.allow() {
			t.Fatalf("%d of %d failing tripped below the %v rate", k-1, 2*k-1, breakerTrip)
		}
		if trips := feed(b, false); trips != 1 || b.allow() {
			t.Fatalf("%d of %d failing did not trip at the %v rate", k, 2*k, breakerTrip)
		}
	})

	t.Run("window-slides", func(t *testing.T) {
		b, _ := start()
		under := breakerWindow/2 - 1 // the most failures a full window holds closed
		if trips := feed(b, append(repeat(true, breakerWindow), repeat(false, under)...)...); trips != 0 {
			t.Fatalf("%d of %d failing tripped the breaker", under, breakerWindow)
		}
		// A whole window of successes rolls every failure out of the ring.
		feed(b, repeat(true, breakerWindow)...)
		if trips := feed(b, repeat(false, under)...); trips != 0 {
			t.Fatal("failures older than the window still counted")
		}
		if trips := feed(b, false); trips != 1 {
			t.Fatalf("%d of %d failing did not trip", under+1, breakerWindow)
		}
	})

	t.Run("cooldown", func(t *testing.T) {
		b, clock := start()
		trip(t, b)
		*clock = clock.Add(breakerCooldown - time.Nanosecond)
		if b.allow() || b.current() != breakerOpen {
			t.Fatal("open breaker admitted an attempt before its cooldown")
		}
		*clock = clock.Add(time.Nanosecond)
		if !b.allow() || b.current() != breakerHalfOpen {
			t.Fatalf("breaker state %d after its cooldown, want half-open", b.current())
		}
	})

	t.Run("half-open-success-closes", func(t *testing.T) {
		b, clock := start()
		trip(t, b)
		*clock = clock.Add(breakerCooldown)
		b.allow()
		if b.record(true) || b.current() != breakerClosed {
			t.Fatalf("successful probe left state %d, want closed", b.current())
		}
		// Closing clears the window: the failures that tripped it are gone.
		if trips := feed(b, repeat(false, breakerMinSamples-1)...); trips != 0 {
			t.Fatal("failures from before the trip still counted after closing")
		}
	})

	t.Run("half-open-failure-reopens", func(t *testing.T) {
		b, clock := start()
		trip(t, b)
		*clock = clock.Add(breakerCooldown)
		b.allow()
		if !b.record(false) || b.allow() {
			t.Fatal("failed probe did not re-open the breaker as a new trip")
		}
		// The new cooldown runs from the failed probe.
		*clock = clock.Add(breakerCooldown - time.Nanosecond)
		if b.allow() {
			t.Fatal("re-opened breaker admitted an attempt before its cooldown")
		}
		*clock = clock.Add(time.Nanosecond)
		if !b.allow() {
			t.Fatal("re-opened breaker did not half-open after its cooldown")
		}
	})

	t.Run("stale-outcome-ignored", func(t *testing.T) {
		b, clock := start()
		trip(t, b)
		if trips := feed(b, true, false); trips != 0 || b.allow() {
			t.Fatal("an outcome recorded while open changed the breaker")
		}
		*clock = clock.Add(breakerCooldown)
		if b.current() != breakerHalfOpen {
			t.Fatalf("state %d after cooldown, want half-open: a stale success closed it", b.current())
		}
	})
}
