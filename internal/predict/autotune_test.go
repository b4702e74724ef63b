package predict

import (
	"math"
	"testing"

	"artery/internal/stats"
)

func TestAutoTuneFindsInteriorOptimum(t *testing.T) {
	rng := stats.NewRNG(21)
	res, err := AutoTune(sharedChannel, TuneConfig{Prior: 0.3, Shots: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta <= 0.5 || res.Theta >= 1 {
		t.Fatalf("tuned theta %v out of range", res.Theta)
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("tuned accuracy %v below floor", res.Accuracy)
	}
	if res.MeanLatencyNs <= 0 || res.MeanLatencyNs >= sharedChannel.Cal.DurationNs+160 {
		t.Fatalf("tuned latency %v not better than conventional", res.MeanLatencyNs)
	}
	if len(res.Curve) != 13 {
		t.Fatalf("curve has %d points", len(res.Curve))
	}
}

func TestAutoTuneAccuracyMonotoneInTheta(t *testing.T) {
	rng := stats.NewRNG(22)
	res, err := AutoTune(sharedChannel, TuneConfig{Prior: 0.5, Shots: 600}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy at the tightest threshold must beat the loosest.
	first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
	if last.Accuracy < first.Accuracy {
		t.Fatalf("accuracy fell from %v to %v as theta tightened", first.Accuracy, last.Accuracy)
	}
	// The tightest threshold must cost more latency than the optimum.
	if last.LatencyNs <= res.MeanLatencyNs {
		t.Fatalf("theta=%.2f latency %v not above optimum %v", last.Theta, last.LatencyNs, res.MeanLatencyNs)
	}
}

func TestAutoTuneRejectsBadCandidates(t *testing.T) {
	rng := stats.NewRNG(23)
	if _, err := AutoTune(sharedChannel, TuneConfig{Candidates: []float64{0.4}}, rng); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
	if _, err := AutoTune(sharedChannel, TuneConfig{Candidates: []float64{}, Shots: 10}, rng); err == nil {
		t.Fatal("empty candidate list accepted")
	}
	// Bad shot counts and priors are rejected before anything is drawn.
	for _, cfg := range []TuneConfig{
		{Prior: 0.5, Shots: -1},
		{Prior: 1.5, Shots: 10},
		{Prior: -0.2, Shots: 10},
		{Prior: math.NaN(), Shots: 10},
	} {
		before := *rng
		if _, err := AutoTune(sharedChannel, cfg, rng); err == nil {
			t.Fatalf("prior %v, %d shots accepted", cfg.Prior, cfg.Shots)
		}
		if *rng != before {
			t.Fatalf("prior %v, %d shots: rejected config drew from rng", cfg.Prior, cfg.Shots)
		}
	}
}

func TestAutoTuneAccuracyFloorEnforced(t *testing.T) {
	rng := stats.NewRNG(24)
	// An impossible floor must produce an error, not a silent pick.
	_, err := AutoTune(sharedChannel, TuneConfig{Prior: 0.5, Shots: 200, MinAccuracy: 0.99999}, rng)
	if err == nil {
		t.Fatal("impossible accuracy floor silently satisfied")
	}
}

func TestAutoTuneDeterministicPerSeed(t *testing.T) {
	a, err1 := AutoTune(sharedChannel, TuneConfig{Prior: 0.3, Shots: 300}, stats.NewRNG(9))
	b, err2 := AutoTune(sharedChannel, TuneConfig{Prior: 0.3, Shots: 300}, stats.NewRNG(9))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a.Theta != b.Theta || a.MeanLatencyNs != b.MeanLatencyNs {
		t.Fatal("AutoTune not deterministic per seed")
	}
}
