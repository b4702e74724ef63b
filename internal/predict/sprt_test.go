package predict

import (
	"math"
	"testing"

	"artery/internal/readout"
	"artery/internal/stats"
)

func TestSPRTPanicsOnBadBudgets(t *testing.T) {
	for _, ab := range [][2]float64{{0, 0.1}, {0.1, 0}, {0.6, 0.1}, {0.1, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("budgets %v accepted", ab)
				}
			}()
			NewSPRT(sharedChannel, ab[0], ab[1])
		}()
	}
}

func TestSPRTErrorRatesNearBudget(t *testing.T) {
	// Wald's guarantee: realized error rates do not exceed the budgets by
	// much (the bound is approximate for discrete-time overshoot).
	s := NewSPRT(sharedChannel, 0.05, 0.05)
	rng := stats.NewRNG(60)
	wrong, total, committed := 0, 0, 0
	for i := 0; i < 1500; i++ {
		pl := sharedChannel.Cal.Synthesize(i%2, rng)
		truth := sharedChannel.Classifier.ClassifyFull(pl)
		d := s.Predict(pl, 0.5)
		total++
		if d.Committed {
			committed++
			if d.Branch != truth {
				wrong++
			}
		}
	}
	if committed < total*8/10 {
		t.Fatalf("SPRT committed only %d/%d", committed, total)
	}
	rate := float64(wrong) / float64(committed)
	if rate > 0.10 { // 2x overshoot allowance on the 5% budget
		t.Fatalf("SPRT error rate %v far above the 5%% budget", rate)
	}
}

func TestSPRTTighterBudgetsSlower(t *testing.T) {
	rng := stats.NewRNG(61)
	var pulses []*readout.Pulse
	for i := 0; i < 400; i++ {
		pulses = append(pulses, sharedChannel.Cal.Synthesize(i%2, rng))
	}
	loose := NewSPRT(sharedChannel, 0.1, 0.1)
	tight := NewSPRT(sharedChannel, 0.005, 0.005)
	accL, tL := loose.Accuracy(pulses, 0.5)
	accT, tT := tight.Accuracy(pulses, 0.5)
	if tT <= tL {
		t.Fatalf("tighter budgets not slower: %v vs %v", tT, tL)
	}
	if accT < accL-0.01 {
		t.Fatalf("tighter budgets less accurate: %v vs %v", accT, accL)
	}
}

func TestSPRTPriorShiftsDecisions(t *testing.T) {
	// A skewed prior must accelerate commits in its direction.
	rng := stats.NewRNG(62)
	var pulses []*readout.Pulse
	for i := 0; i < 300; i++ {
		state := 0
		if rng.Bool(0.05) {
			state = 1
		}
		pulses = append(pulses, sharedChannel.Cal.Synthesize(state, rng))
	}
	s := NewSPRT(sharedChannel, 0.03, 0.03)
	_, tSkew := s.Accuracy(pulses, 0.05)
	_, tFlat := s.Accuracy(pulses, 0.5)
	if tSkew >= tFlat {
		t.Fatalf("matching prior did not accelerate: %v vs %v", tSkew, tFlat)
	}
}

func TestSPRTTraceMonotonePosterior(t *testing.T) {
	// The logistic posterior must stay in (0,1) and times must increase.
	s := NewSPRT(sharedChannel, 0.02, 0.02)
	rng := stats.NewRNG(63)
	d := s.Predict(sharedChannel.Cal.Synthesize(1, rng), 0.5)
	if len(d.Trace) == 0 {
		t.Fatal("empty trace")
	}
	prevT := 0.0
	for _, pt := range d.Trace {
		if pt.PPredict <= 0 || pt.PPredict >= 1 || math.IsNaN(pt.PPredict) {
			t.Fatalf("posterior %v out of range", pt.PPredict)
		}
		if pt.TimeNs <= prevT {
			t.Fatal("trace times not increasing")
		}
		prevT = pt.TimeNs
	}
}

func TestSPRTFasterThanTableAtMatchedAccuracy(t *testing.T) {
	// The paper-table predictor at θ=0.91 and the SPRT at α=β=0.09 target
	// comparable confidence; SPRT (exact likelihoods, no quantization into
	// k-bit patterns) should decide at least as fast on balanced priors.
	rng := stats.NewRNG(64)
	var pulses []*readout.Pulse
	for i := 0; i < 400; i++ {
		pulses = append(pulses, sharedChannel.Cal.Synthesize(i%2, rng))
	}
	table := New(DefaultConfig(), sharedChannel)
	_, tTable := table.Accuracy(pulses, pHistory(100, 100))
	sprt := NewSPRT(sharedChannel, 0.09, 0.09)
	accS, tSprt := sprt.Accuracy(pulses, 0.5)
	if accS < 0.85 {
		t.Fatalf("SPRT accuracy %v", accS)
	}
	if tSprt > tTable*1.1 {
		t.Fatalf("SPRT (%v ns) much slower than table predictor (%v ns)", tSprt, tTable)
	}
}
