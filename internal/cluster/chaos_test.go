package cluster

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"artery/api"
	"artery/client"
	"artery/internal/chaos"
)

// chaosBackend starts one backend node behind its own seeded chaos proxy
// and returns the proxy, whose URL is the backend's base.
func chaosBackend(t *testing.T, seed uint64, rate float64) *chaos.Proxy {
	t.Helper()
	n := startNode(t, 1, nil)
	p, err := chaos.NewProxy(chaos.Scaled(seed, rate), "127.0.0.1:0", n.ts.URL)
	if err != nil {
		t.Fatalf("chaos.NewProxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestCoordinatorBitIdenticalUnderChaos is the resilience acceptance
// suite: every backend sits behind its own deterministic chaos proxy —
// injected latency, resets, blackholes, truncated and corrupted frames,
// slow-loris drip, 5xx storms — and any job that completes must still be
// byte-identical to a clean single-node run, across {hedging on/off} ×
// {two chaos seeds} × {1, 2, 4 backends}. Retries, hedges and failovers
// may reshuffle which backend serves which shard; the ordinal-addressed
// shard buffers assert that none of it can change a single output byte.
// The coordinator's backend clients turn keep-alives off, so every
// request is its own proxied connection and draws its own fault plan,
// and a cell whose proxies injected no destructive fault fails: it
// would have tested nothing.
func TestCoordinatorBitIdenticalUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	off := false
	req := api.Request{
		Workload: "qrw", Param: 3, Controller: "ARTERY", Shots: 24, Seed: 17,
		StreamStages: true, Options: &api.RequestOptions{StateSim: &off},
	}
	golden := startNode(t, 2, nil)
	wantRes, wantEvents := runJob(t, golden.ts.URL, req)

	for _, hedge := range []bool{true, false} {
		for _, seed := range []uint64{3, 9} {
			for _, backends := range []int{1, 2, 4} {
				hedge, seed, backends := hedge, seed, backends
				name := fmt.Sprintf("hedge=%v/seed=%d/backends=%d", hedge, seed, backends)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var proxies []*chaos.Proxy
					var bases []string
					for i := 0; i < backends; i++ {
						p := chaosBackend(t, seed+uint64(i), 0.12)
						proxies = append(proxies, p)
						bases = append(bases, "http://"+p.Addr())
					}
					noKeepAlive := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
					_, coordURL := startCoordinator(t, Config{
						Backends:       bases,
						ShardAttempts:  8,
						DisableHedging: !hedge,
						// A fixed short hedge delay keeps the hedged cells
						// actually hedging instead of waiting out the
						// adaptive floor on every faulted attempt.
						HedgeDelay:    300 * time.Millisecond,
						ClientOptions: []client.Option{client.WithHTTPClient(noKeepAlive)},
					})
					res, events := runJob(t, coordURL, req)
					compareRuns(t, name, wantRes, wantEvents, res, events)
					var faults int64
					for _, p := range proxies {
						faults += p.Faults()
					}
					if faults == 0 {
						t.Errorf("%s: the proxies injected no destructive fault", name)
					}
					t.Logf("%s: %d destructive faults", name, faults)
				})
			}
		}
	}
}

// TestCoordinatorNotReadyWithoutBackends: satellite 1 — a coordinator
// whose whole fleet fails /readyz reports 503 on its own /readyz and
// sheds submissions with 503 instead of queueing jobs it cannot run.
func TestCoordinatorNotReadyWithoutBackends(t *testing.T) {
	co, coordURL := startCoordinator(t, Config{
		Backends: []string{"http://127.0.0.1:1"}, // nothing listens here
	})
	// The immediate first probe is enough to mark the backend unhealthy;
	// poll briefly to avoid a startup race.
	deadline := time.Now().Add(2 * time.Second)
	for co.healthyCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := co.healthyCount(); n != 0 {
		t.Fatalf("healthyCount = %d, want 0", n)
	}

	resp, err := http.Get(coordURL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with zero healthy backends, want 503", resp.StatusCode)
	}

	body := strings.NewReader(`{"workload":"qrw","param":3,"shots":4,"seed":1}`)
	resp, err = http.Post(coordURL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit = %d with zero healthy backends, want 503 (shed)", resp.StatusCode)
	}
	var prom strings.Builder
	co.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_server_jobs_shed_total 1") {
		t.Errorf("shed not counted:\n%s", grepProm(prom.String(), "shed"))
	}
}

// TestBreakerTripsUnderSustainedFailure drives one backend's breaker
// through the full trip → cooldown → half-open → close cycle via the
// coordinator's own noteOutcome path, and checks the trip counter and
// state gauge follow along. The breaker's clock is a test clock, so the
// cooldown elapses without sleeping.
func TestBreakerTripsUnderSustainedFailure(t *testing.T) {
	n := startNode(t, 1, nil)
	co, _ := startCoordinator(t, Config{Backends: []string{n.ts.URL}})
	b := co.backends[0]
	clock := time.Now()
	b.brk.now = func() time.Time { return clock }
	for i := 0; i < 4; i++ {
		co.noteOutcome(b, false)
	}
	if got := b.brk.current(); got != breakerOpen {
		t.Fatalf("breaker state after 4 failures = %d, want open (%d)", got, breakerOpen)
	}
	if b.brk.allow() {
		t.Fatal("open breaker admitted an attempt before cooldown")
	}
	var prom strings.Builder
	co.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_cluster_breaker_trips_total 1") {
		t.Errorf("trip not counted:\n%s", grepProm(prom.String(), "breaker"))
	}
	if !strings.Contains(prom.String(), "artery_cluster_breaker_state_backend0 2") {
		t.Errorf("state gauge not open:\n%s", grepProm(prom.String(), "breaker"))
	}

	clock = clock.Add(breakerCooldown - time.Nanosecond)
	if b.brk.allow() {
		t.Fatal("open breaker admitted an attempt before cooldown")
	}
	clock = clock.Add(time.Nanosecond) // cooldown elapses
	if !b.brk.allow() {
		t.Fatal("breaker still blocking after cooldown (should half-open)")
	}
	co.noteOutcome(b, true) // probe succeeds
	if got := b.brk.current(); got != breakerClosed {
		t.Fatalf("breaker state after successful probe = %d, want closed (%d)", got, breakerClosed)
	}
}

// TestPickBackendSkipsTrippedAndStragglers: the dispatcher prefers
// healthy, breaker-closed, non-straggling backends; a straggler is the
// fallback of last resort before the round-robin default.
func TestPickBackendSkipsTrippedAndStragglers(t *testing.T) {
	a := startNode(t, 1, nil)
	b := startNode(t, 1, nil)
	co, _ := startCoordinator(t, Config{Backends: []string{a.ts.URL, b.ts.URL}})
	waitHealthy(t, co, 2)

	// Trip backend 0: shard 0 must route to backend 1.
	for i := 0; i < 4; i++ {
		co.noteOutcome(co.backends[0], false)
	}
	if got := co.pickBackend(0, 0, nil); got != co.backends[1] {
		t.Fatalf("pickBackend routed to tripped backend %d", got.index)
	}
	// With backend 1 excluded (hedge placement) nothing eligible remains:
	// the hedge is skipped rather than doubling down on a tripped node.
	if got := co.pickBackend(0, 0, co.backends[1]); got != nil {
		t.Fatalf("hedge placement returned backend %d, want nil", got.index)
	}

	// Mark backend 1 a straggler (slow EWMA vs backend 0): with backend
	// 0's breaker closed again, shard 1 should skip the straggler.
	co.backends[0].brk = newBreaker()
	seedEWMA(co.backends[0], 0.01)
	seedEWMA(co.backends[1], 0.5)
	if got := co.pickBackend(1, 0, nil); got != co.backends[0] {
		t.Fatalf("pickBackend ignored straggler EWMA, picked backend %d", got.index)
	}
	var prom strings.Builder
	co.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_cluster_straggler_skips_total") {
		t.Error("straggler skip counter not exposed")
	}
}

// seedEWMA force-feeds a backend's latency EWMA for dispatcher tests.
func seedEWMA(b *backend, seconds float64) {
	b.observe(seconds)
	b.observe(seconds)
}

func waitHealthy(t *testing.T, co *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for co.healthyCount() != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := co.healthyCount(); got != want {
		t.Fatalf("healthyCount = %d, want %d", got, want)
	}
}

// grepProm filters an exposition to lines containing substr, for
// readable failure messages.
func grepProm(prom, substr string) string {
	var out []string
	for _, line := range strings.Split(prom, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
