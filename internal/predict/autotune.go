package predict

import (
	"fmt"

	"artery/internal/readout"
	"artery/internal/stats"
)

// TuneResult is the outcome of the Figure-17 threshold-tuning procedure.
type TuneResult struct {
	Theta float64
	// MeanLatencyNs is the expected per-feedback latency at Theta on the
	// tuning set, including misprediction recovery.
	MeanLatencyNs float64
	// Accuracy is the committed-prediction accuracy at Theta.
	Accuracy float64
	// Curve records (theta, latency, accuracy) for every candidate.
	Curve []TunePoint
}

// TunePoint is one candidate threshold's tuning measurement.
type TunePoint struct {
	Theta     float64
	LatencyNs float64
	Accuracy  float64
}

// TuneConfig parameterizes AutoTune.
type TuneConfig struct {
	// Candidates to evaluate; nil selects the default ladder
	// 0.55..0.99.
	Candidates []float64
	// Prior is the site's historical branch-1 probability, in [0, 1]
	// (0 selects 0.5).
	Prior float64
	// Shots per candidate (default 400); negative is an error.
	Shots int
	// MinAccuracy discards candidates below this committed accuracy
	// (default 0.85, keeping the paper's >90% operating regime reachable).
	MinAccuracy float64
	// RecoveryNs is the misprediction penalty added on top of the full
	// readout (undo + correct-branch issue; default 150 ns).
	RecoveryNs float64
	// Mode selects the predictor features (default combined).
	Mode Mode
}

func (c *TuneConfig) fill() {
	if c.Candidates == nil {
		c.Candidates = []float64{0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.88, 0.91, 0.93, 0.95, 0.97, 0.99}
	}
	if c.Shots == 0 {
		c.Shots = 400
	}
	if c.MinAccuracy == 0 {
		c.MinAccuracy = 0.85
	}
	if c.RecoveryNs == 0 {
		c.RecoveryNs = 150
	}
	if c.Prior == 0 {
		c.Prior = 0.5
	}
}

// AutoTune reproduces the paper's threshold-selection procedure (§6.6,
// Figure 17): evaluate the expected feedback latency of each candidate
// tolerance threshold on training pulses — a committed correct prediction
// costs its commit time, a misprediction costs the full readout plus
// recovery, a non-commit costs the conventional path — and pick the
// latency-minimizing threshold subject to the accuracy floor.
func AutoTune(ch *readout.Channel, cfg TuneConfig, rng *stats.RNG) (TuneResult, error) {
	if cfg.Shots < 0 {
		return TuneResult{}, fmt.Errorf("predict: negative tuning shot count %d", cfg.Shots)
	}
	if !(cfg.Prior >= 0 && cfg.Prior <= 1) {
		return TuneResult{}, fmt.Errorf("predict: prior %v out of [0,1]", cfg.Prior)
	}
	cfg.fill()
	if len(cfg.Candidates) == 0 {
		return TuneResult{}, fmt.Errorf("predict: no threshold candidates")
	}

	// Pre-generate the tuning shots' readout records once so candidates
	// see identical data.
	n := ch.Windows()
	backing := make([]int, cfg.Shots*n)
	shots := make([]readout.Record, cfg.Shots)
	for i := range shots {
		state := 0
		if rng.Bool(cfg.Prior) {
			state = 1
		}
		shots[i] = ch.Read(state, rng, nil, nil, backing[i*n:i*n:(i+1)*n])
	}

	conventional := ch.Cal.DurationNs + 160 // full readout + processing chain

	var best *TunePoint
	res := TuneResult{}
	for _, theta := range cfg.Candidates {
		if theta <= 0.5 || theta >= 1 {
			return TuneResult{}, fmt.Errorf("predict: candidate threshold %v out of (0.5,1)", theta)
		}
		p := New(Config{Theta: theta, Mode: cfg.Mode}, ch)
		var lat stats.RunningMean
		committed, correct := 0, 0
		for _, r := range shots {
			d := p.Predict(r, cfg.Prior, nil)
			switch {
			case !d.Committed:
				lat.Add(conventional)
			case d.Branch == r.Truth:
				committed++
				correct++
				lat.Add(d.TimeNs)
			default:
				committed++
				lat.Add(conventional + cfg.RecoveryNs)
			}
		}
		acc := 1.0
		if committed > 0 {
			acc = float64(correct) / float64(committed)
		}
		pt := TunePoint{Theta: theta, LatencyNs: lat.Mean(), Accuracy: acc}
		res.Curve = append(res.Curve, pt)
		if acc < cfg.MinAccuracy {
			continue
		}
		if best == nil || pt.LatencyNs < best.LatencyNs {
			b := pt
			best = &b
		}
	}
	if best == nil {
		return res, fmt.Errorf("predict: no candidate met the %.2f accuracy floor", cfg.MinAccuracy)
	}
	res.Theta = best.Theta
	res.MeanLatencyNs = best.LatencyNs
	res.Accuracy = best.Accuracy
	return res, nil
}
