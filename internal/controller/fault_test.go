package controller

import (
	"testing"

	"artery/internal/circuit"
	"artery/internal/fault"
	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/readout"
	"artery/internal/stats"
)

// faultSession builds one shot session over the given config.
func faultSession(t *testing.T, cfg fault.Config, seed uint64) *fault.Session {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("bad fault config: %v", err)
	}
	return fault.NewInjector(cfg).Session(stats.NewRNG(seed))
}

// policyWith returns the default degradation policy with a marker rate set
// so the config reports Enabled (sessions are only built when it does).
func policyWith(mut func(*fault.Config)) fault.Config {
	cfg := fault.DefaultPolicy()
	mut(&cfg)
	return cfg
}

func TestArteryOutageFallsBack(t *testing.T) {
	a, ch := testRig(301, predict.DefaultConfig())
	cfg := policyWith(func(c *fault.Config) { c.ReadoutOutageRate = 0.999 })
	r := ch.Read(1, stats.NewRNG(5), nil, nil, nil)

	sess := faultSession(t, cfg, 21)
	out := a.Feedback(site1(), Shot{Record: r, Faults: sess})
	if sess.C.Outages != 1 {
		t.Skipf("outage did not fire at this seed (rate 0.999)")
	}
	if !out.FellBack || out.Committed {
		t.Fatalf("outage shot not served on the blocking path: %+v", out)
	}
	// On-chip site: blocked latency is readout + processing + repeat penalty.
	want := a.pred.ReadoutDurationNs() + a.units.Processing() + cfg.OutagePenaltyNs
	if out.LatencyNs != want {
		t.Fatalf("outage latency = %v, want %v", out.LatencyNs, want)
	}
}

func TestArteryDegradesAndRecovers(t *testing.T) {
	a, ch := testRig(302, predict.DefaultConfig())
	a.Online = false
	a.PriorWeight = 100000 // prior dominates every posterior
	// Jitter with a vanishing mean keeps faults "enabled" without perturbing
	// latency paths — we want the degradation machinery driven purely by the
	// shadow misprediction rate.
	cfg := policyWith(func(c *fault.Config) { c.TriggerJitterNs = 1e-12 })
	in := fault.NewInjector(cfg)
	rng := stats.NewRNG(6)
	site := siteWithPrior(40, 0.9999) // history screams 1

	// Phase 1: feed truth-0 pulses. The overwhelming prior commits branch 1
	// every time → mispredictions → the tracker must trip within a window.
	tripped := -1
	for i := 0; i < cfg.FallbackWindow+4; i++ {
		shot := preparedShot(ch, 0, rng)
		sess := in.Session(rng.Split())
		shot.Faults = sess
		out := a.Feedback(site, shot)
		if out.FellBack {
			tripped = i
			if sess.C.Fallbacks != 1 {
				t.Fatalf("fallback shot did not count: %+v", sess.C)
			}
			break
		}
		if out.Correct {
			t.Skipf("predictor shook off the bad prior at shot %d", i)
		}
	}
	if tripped < 0 {
		t.Fatalf("tracker never tripped after %d straight mispredictions", cfg.FallbackWindow+4)
	}
	if tripped < cfg.FallbackWindow/2-1 {
		t.Fatalf("tripped after %d shots, before the half-window guard (%d)", tripped, cfg.FallbackWindow/2)
	}

	// Phase 2: while degraded the shadow predictor keeps measuring; feed
	// truth-1 pulses (matching the prior → correct shadow predictions) until
	// the bad rate falls below FallbackRecover and prediction resumes.
	recovered := false
	for i := 0; i < 3*cfg.FallbackWindow; i++ {
		shot := preparedShot(ch, 1, rng)
		shot.Faults = in.Session(rng.Split())
		out := a.Feedback(site, shot)
		if !out.FellBack {
			if !out.Committed {
				t.Fatalf("recovered feedback did not commit: %+v", out)
			}
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("controller never recovered from degradation")
	}
}

func TestArteryLostTriggerFallsBack(t *testing.T) {
	a, ch := testRig(303, predict.DefaultConfig())
	a.Online = false
	a.PriorWeight = 100000
	cfg := policyWith(func(c *fault.Config) {
		c.BackplaneDropRate = 0.999 // every hop drops: trigger cannot get out
		c.FallbackTrip = 0          // keep the tracker out of the way
		c.FallbackRecover = 0
	})
	rng := stats.NewRNG(7)
	// Remote site: qubit 0 → qubit 6 crosses the backplane (2 hops).
	site := Site{ID: 50, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 6,
		Prior: 0.9999, UndoOnOneNs: 30}

	sess := faultSession(t, cfg, 31)
	shot := preparedShot(ch, 1, rng)
	shot.Faults = sess
	out := a.Feedback(site, shot)
	if sess.C.LostTriggers != 1 {
		t.Skipf("trigger survived a 0.999 drop rate at this seed: %+v", sess.C)
	}
	if !out.FellBack || out.Committed {
		t.Fatalf("lost trigger not degraded to the blocking path: %+v", out)
	}
	if out.LatencyNs <= ReadoutNs {
		t.Fatalf("lost-trigger latency %v should exceed the readout (retry penalty + blocking path)", out.LatencyNs)
	}
	if sess.C.Retries < cfg.MaxRetries {
		t.Fatalf("retries = %d, want at least the trigger budget %d", sess.C.Retries, cfg.MaxRetries)
	}
}

func TestArteryJitterDelaysCommittedTrigger(t *testing.T) {
	// Two identical rigs, one fault-free and one with heavy trigger jitter:
	// the faulted committed feedback must be strictly slower and the clean
	// one unchanged by the (draw-free) zero-rate session.
	mk := func() (*Artery, Shot) {
		a, ch := testRig(304, predict.DefaultConfig())
		a.Online = false
		a.PriorWeight = 100000
		return a, preparedShot(ch, 1, stats.NewRNG(8))
	}
	aClean, shot := mk()
	base := aClean.Feedback(siteWithPrior(60, 0.9999), shot)
	if !base.Committed || !base.Correct {
		t.Skipf("committed-correct baseline not reached: %+v", base)
	}

	aJit, shot := mk()
	cfg := policyWith(func(c *fault.Config) {
		c.TriggerJitterNs = 500
		c.FallbackTrip = 0
		c.FallbackRecover = 0
	})
	sess := faultSession(t, cfg, 41)
	shot.Faults = sess
	out := aJit.Feedback(siteWithPrior(60, 0.9999), shot)
	if !out.Committed {
		t.Fatalf("jittered shot did not commit: %+v", out)
	}
	if sess.C.Jitters != 1 {
		t.Fatalf("jitter draw did not fire: %+v", sess.C)
	}
	if out.LatencyNs <= base.LatencyNs {
		t.Fatalf("jittered latency %v not above clean latency %v", out.LatencyNs, base.LatencyNs)
	}
}

func TestBaselineOutagePenalty(t *testing.T) {
	topo := interconnect.PaperTopology()
	b := NewBaseline("QubiC", QubiCOverheadNs, topo)
	cfg := policyWith(func(c *fault.Config) { c.ReadoutOutageRate = 0.999 })
	sess := faultSession(t, cfg, 51)
	out := b.Feedback(site1(), Shot{Record: readout.Record{Truth: 1}, Faults: sess})
	if sess.C.Outages != 1 {
		t.Skipf("outage did not fire at this seed")
	}
	want := ReadoutNs + QubiCOverheadNs + cfg.OutagePenaltyNs
	if out.LatencyNs != want {
		t.Fatalf("outage latency = %v, want %v", out.LatencyNs, want)
	}
	if out.FellBack {
		t.Fatal("baseline has no predictive path to fall back from")
	}
}

func TestBaselineRemoteRetriesStretchLatency(t *testing.T) {
	topo := interconnect.PaperTopology()
	b := NewBaseline("QubiC", QubiCOverheadNs, topo)
	remote := Site{ID: 70, Case: circuit.Case1Independent, ReadQubit: 0, BranchQubit: 6}
	clean := b.Feedback(remote, Shot{})

	cfg := policyWith(func(c *fault.Config) { c.BackplaneCorruptRate = 0.6 })
	in := fault.NewInjector(cfg)
	rng := stats.NewRNG(9)
	sawRetry := false
	for i := 0; i < 50 && !sawRetry; i++ {
		sess := in.Session(rng.Split())
		out := b.Feedback(remote, Shot{Faults: sess})
		if sess.C.Retries > 0 {
			sawRetry = true
			if out.LatencyNs <= clean.LatencyNs {
				t.Fatalf("retried latency %v not above clean %v", out.LatencyNs, clean.LatencyNs)
			}
		} else if out.LatencyNs != clean.LatencyNs {
			t.Fatalf("retry-free faulted latency %v differs from clean %v", out.LatencyNs, clean.LatencyNs)
		}
	}
	if !sawRetry {
		t.Fatal("no retry observed in 50 shots at corrupt rate 0.6")
	}
}

func TestArteryFaultFreeSessionIsTransparent(t *testing.T) {
	// A nil session and a session over a zero-rate config must both leave
	// every outcome identical to the fault-free path.
	mkOut := func(sess *fault.Session) Outcome {
		a, ch := testRig(305, predict.DefaultConfig())
		shot := Shot{Record: ch.Read(1, stats.NewRNG(10), nil, nil, nil), Faults: sess}
		return a.Feedback(siteWithPrior(80, 0.995), shot)
	}
	ref := mkOut(nil)
	// DefaultPolicy has all rates zero; such an injector is never installed
	// by the engine, but the controller must still treat its sessions as
	// no-ops if handed one directly.
	zero := fault.NewInjector(fault.DefaultPolicy()).Session(stats.NewRNG(1))
	if got := mkOut(zero); got != ref {
		t.Fatalf("zero-rate session changed the outcome:\n got %+v\nwant %+v", got, ref)
	}
}
