package core

import (
	"math"

	"artery/internal/stats"
	"artery/internal/trace"
)

// ShotSummary is one merged shot as every layer past the engine sees it:
// the facade streams it, the wire event is its projection, and Fold
// consumes it. Summarize builds it from a ShotResult.
type ShotSummary struct {
	// Shot is the global 0-based shot index.
	Shot int
	// LatencyNs is the shot's summed feedback latency (plus gate payload).
	LatencyNs float64
	// Fidelity is the shot's end-of-circuit fidelity (NaN when state
	// simulation is disabled or the backend has no amplitudes).
	Fidelity float64
	// Sites is the number of feedback sites the shot executed.
	Sites int
	// Commits counts sites whose prediction committed before readout end;
	// Correct counts the committed predictions that needed no recovery.
	Commits, Correct int
	// Fallbacks counts sites served on the degraded blocking path.
	Fallbacks int
	// Stages is the shot's ordered per-stage latency deltas: the fixed gate
	// payload first, then every feedback outcome's additive stage partition
	// in pipeline order.
	Stages []StageDelta
}

// StageDelta is one ordered per-stage latency delta of a shot.
type StageDelta struct {
	Stage trace.Stage
	Ns    float64
}

// Summarize reduces shot's result to its summary; payloadNs is the
// workload's fixed gate payload.
func Summarize(shot int, payloadNs float64, sr ShotResult) ShotSummary {
	return summarize(make([]StageDelta, 0, 1+4*len(sr.Outcomes)), shot, payloadNs, sr)
}

// summarize is Summarize appending the stage deltas to stages[:0], so a
// caller that folds each summary before building the next can reuse one
// backing.
func summarize(stages []StageDelta, shot int, payloadNs float64, sr ShotResult) ShotSummary {
	s := ShotSummary{
		Shot:      shot,
		LatencyNs: sr.FeedbackLatencyNs,
		Fidelity:  sr.Fidelity,
		Sites:     len(sr.Outcomes),
		Stages:    append(stages[:0], StageDelta{trace.StagePayload, payloadNs}),
	}
	for _, o := range sr.Outcomes {
		if o.Committed {
			s.Commits++
			if o.Correct {
				s.Correct++
			}
		}
		if o.FellBack {
			s.Fallbacks++
		}
		o.Breakdown.Stages(func(st trace.Stage, d float64) {
			s.Stages = append(s.Stages, StageDelta{st, d})
		})
	}
	return s
}

// Fold is the one merge of shot summaries into a run's aggregates. The
// engine's merge path, the scatter-gather coordinator and crash recovery
// all fold through it, in global shot order; float64 addition is
// deterministic, so equal summaries in equal order give equal bytes
// wherever they are folded. The zero value is an empty fold.
type Fold struct {
	shots      int
	latencyNs  float64
	fidelity   stats.RunningMean
	sites      int
	commits    int
	correct    int
	stageCount [trace.NumStages]int
	stageTotal [trace.NumStages]float64
}

// Add folds one shot.
func (f *Fold) Add(s ShotSummary) {
	f.shots++
	f.latencyNs += s.LatencyNs
	if !math.IsNaN(s.Fidelity) {
		f.fidelity.Add(s.Fidelity)
	}
	f.sites += s.Sites
	f.commits += s.Commits
	f.correct += s.Correct
	for _, d := range s.Stages {
		f.stageCount[d.Stage]++
		f.stageTotal[d.Stage] += d.Ns
	}
}

// Shots returns the number of shots folded so far.
func (f *Fold) Shots() int { return f.shots }

// Result renders the fold as a RunResult under the given names: Shots,
// the sum-then-divide MeanLatencyNs and MeanFidelity (NaN when no shot had
// a fidelity), the integer Accuracy and CommitRate ratios, and the Stages
// table in stage order, omitting stages that never occurred. The fields
// the fold does not own (Latencies, Faults, MeanDecisionNs, FallbackRate)
// stay zero.
func (f *Fold) Result(workload, controller string, canceled bool) RunResult {
	res := RunResult{
		Workload:     workload,
		Controller:   controller,
		Shots:        f.shots,
		Accuracy:     1, // baselines never predict, hence never mispredict
		MeanFidelity: math.NaN(),
		Canceled:     canceled,
	}
	if f.shots > 0 {
		res.MeanLatencyNs = f.latencyNs / float64(f.shots)
	}
	if f.commits > 0 {
		res.Accuracy = float64(f.correct) / float64(f.commits)
	}
	if f.sites > 0 {
		res.CommitRate = float64(f.commits) / float64(f.sites)
	}
	if f.fidelity.N() > 0 {
		res.MeanFidelity = f.fidelity.Mean()
	}
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		if f.stageCount[st] == 0 {
			continue
		}
		res.Stages = append(res.Stages, StageLatency{
			Stage:   st.String(),
			Count:   f.stageCount[st],
			TotalNs: f.stageTotal[st],
			MeanNs:  f.stageTotal[st] / float64(f.stageCount[st]),
		})
	}
	return res
}
