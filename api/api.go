// Package api is the single source of truth for arteryd's job-service
// wire schema: the request/response/stream documents exchanged by the
// server (internal/server), the coordinator (internal/cluster) and the Go
// client (client). All three import these types, so the coordinator, a
// backend and a client cannot drift — a field added here is visible, with
// identical JSON tags, to every party at once.
//
// # Schema
//
// Version 3 (this package):
//
//   - Request gains the optional shot-range fields "shot_offset" and
//     "stream_stages". A job with shot_offset=O and shots=S executes the
//     global shot range [O, O+S) of a conceptually larger run: per-shot
//     RNG streams are drawn for global indices, so contiguous ranges
//     recombine bit-identically to a single unsharded run (the
//     scatter-gather coordinator's contract). Servers predating this
//     schema reject the new fields with a clear 400 (their decoders
//     disallow unknown fields).
//   - ShotEvent gains the optional "stages" array: the shot's ordered
//     per-stage latency deltas, emitted only when the request set
//     "stream_stages". Replaying every shot's deltas in shot order
//     reproduces the run's stage table bit-for-bit; the coordinator uses
//     this to merge sharded streams into a byte-identical result.
//
// Version 4 (this package):
//
//   - Request gains the optional "deadline_ms" field: a wall-clock bound
//     on the job measured from admission. Servers predating this schema
//     reject the field with a clear 400.
//
// Version 2 and earlier lived in internal/server.
package api

import (
	"fmt"
	"math"

	"artery"
	"artery/internal/core"
	"artery/internal/trace"
)

// Request is the POST /v1/jobs body: which workload to run, under which
// controller, for how many shots, from which seed.
type Request struct {
	// Workload names a registered benchmark (see artery.WorkloadNames:
	// qrw, rcnot, dqt, rusqnn, reset, qec, eswap, msi, surface).
	Workload string `json:"workload"`
	// Param is the workload size parameter
	// (steps/depth/distance/cycles/qubits).
	Param int `json:"param"`
	// Controller selects the feedback controller (default "ARTERY"; see
	// artery.ControllerNames).
	Controller string `json:"controller,omitempty"`
	// Shots is the number of shots to execute (1 ..= the server's MaxShots).
	Shots int `json:"shots"`
	// ShotOffset, when non-zero, selects range execution: the job runs the
	// global shot range [ShotOffset, ShotOffset+Shots) of a conceptually
	// larger run, drawing per-shot RNG streams for global indices so that
	// contiguous ranges of the same request recombine bit-identically to
	// one unsharded run. Streamed ShotEvent.Shot values are global indices.
	// Servers predating schema v3 reject this field with a 400.
	ShotOffset int `json:"shot_offset,omitempty"`
	// StreamStages asks the server to include each streamed shot's ordered
	// per-stage latency deltas (ShotEvent.Stages) — the extra record a
	// scatter-gather coordinator needs to rebuild the merged stage table
	// bit-for-bit. Off by default: the deltas roughly double event size.
	StreamStages bool `json:"stream_stages,omitempty"`
	// DeadlineMs, when non-zero, bounds the job's total wall time in
	// milliseconds, measured from admission (queue wait included). A job
	// whose deadline expires before it starts fails without running; one
	// that expires mid-run ends as a deterministic canceled prefix, exactly
	// like a graceful drain. Servers predating schema v4 reject this field
	// with a 400.
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// Seed drives every stochastic component of the job's private system;
	// identical requests with identical seeds produce byte-identical
	// results at any worker budget. Zero selects seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Options carries the optional calibration settings.
	Options *RequestOptions `json:"options,omitempty"`
}

// RequestOptions carries the library settings a wire request may set
// (see LibraryOptions). Zero values select the paper's evaluation
// configuration.
type RequestOptions struct {
	WindowNs     float64 `json:"window_ns,omitempty"`
	HistoryDepth int     `json:"history_depth,omitempty"`
	Theta        float64 `json:"theta,omitempty"`
	// Mode selects the predictor features: "combined" (default),
	// "history" or "trajectory".
	Mode string `json:"mode,omitempty"`
	// StateSim enables the per-shot fidelity simulation (default true, as
	// in the library). Disable for latency-only sweeps.
	StateSim            *bool   `json:"state_sim,omitempty"`
	DynamicalDecoupling bool    `json:"dynamical_decoupling,omitempty"`
	QuasiStaticSigma    float64 `json:"quasi_static_sigma,omitempty"`
	// Backend selects the simulation backend: "auto" (default), "state"
	// or "stabilizer". An unknown name, or an explicit backend the
	// workload cannot run on, is rejected at admission time.
	Backend string `json:"backend,omitempty"`
}

// ModeByName maps the wire predictor-mode names onto artery's constants.
var ModeByName = map[string]artery.PredictorMode{
	"":           artery.ModeCombined,
	"combined":   artery.ModeCombined,
	"history":    artery.ModeHistory,
	"trajectory": artery.ModeTrajectory,
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether state is one of the three end states.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobStatus is the GET /v1/jobs/{id} body (and the POST response).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Request echoes the submitted request, so a client can resubmit a
	// job (same seed → byte-identical result) without keeping it around.
	Request Request `json:"request"`
	// ShotsStreamed is the number of per-shot updates committed so far.
	ShotsStreamed int `json:"shots_streamed"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is set once the job reaches a terminal state with a result
	// (done — including canceled-prefix results after a drain).
	Result *Result `json:"result,omitempty"`
	// ElapsedSec is the job's wall time so far (queue wait + run).
	ElapsedSec float64 `json:"elapsed_sec"`
}

// Result is the wire form of an artery.Report. Fidelity is a pointer so
// the NaN of latency-only runs serializes as null (encoding/json rejects
// NaN), keeping result bytes deterministic and parseable.
type Result struct {
	Workload      string   `json:"workload"`
	Controller    string   `json:"controller"`
	Shots         int      `json:"shots"`
	MeanLatencyUs float64  `json:"mean_latency_us"`
	Accuracy      float64  `json:"accuracy"`
	CommitRate    float64  `json:"commit_rate"`
	Fidelity      *float64 `json:"fidelity"`
	Stages        []Stage  `json:"stages,omitempty"`
	// Canceled marks a deterministic canceled prefix: the run stopped
	// early (graceful drain), and the aggregates cover the Shots merged
	// shots.
	Canceled bool `json:"canceled,omitempty"`
}

// Stage is one row of the per-stage latency breakdown.
type Stage = core.StageLatency

// ShotEvent is one NDJSON line of GET /v1/jobs/{id}/stream: one committed
// shot, in shot order. Fidelity is null when state simulation is off.
// Shot is the global shot index (offset-relative for range jobs).
type ShotEvent struct {
	Shot      int      `json:"shot"`
	LatencyNs float64  `json:"latency_ns"`
	Fidelity  *float64 `json:"fidelity,omitempty"`
	Sites     int      `json:"sites"`
	Commits   int      `json:"commits"`
	Correct   int      `json:"correct"`
	Fallbacks int      `json:"fallbacks,omitempty"`
	// Stages holds the shot's ordered per-stage latency deltas, present
	// only when the request set StreamStages (schema v3).
	Stages []StageDelta `json:"stages,omitempty"`
}

// StageDelta is one ordered per-stage latency delta of a streamed shot:
// replaying count[stage]++ / total[stage] += ns over a run's shots in
// shot order reproduces the run's Result.Stages table bit-for-bit.
type StageDelta struct {
	Stage string  `json:"stage"`
	Ns    float64 `json:"ns"`
}

// StreamEnd is the terminal NDJSON line of a stream: the job's final
// state and result.
type StreamEnd struct {
	Done   bool    `json:"done"`
	State  string  `json:"state"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// Code types the error machine-readably where the status alone is
	// ambiguous. Today: CodeEvicted on a 410 for a job id that existed
	// but was evicted from memory (and, with no store configured or after
	// compaction, is gone for good) — distinguishable from a 404 for an
	// id that never existed.
	Code string `json:"code,omitempty"`
	// RetryAfterSec echoes the Retry-After header of 429 responses, for
	// clients that prefer the body.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// CodeEvicted marks a 410 Gone: the job id was issued by this server but
// its record has since been evicted.
const CodeEvicted = "evicted"

// ResultFrom converts a finished run's Report to its wire form.
func ResultFrom(rep artery.Report) *Result {
	return &Result{
		Workload:      rep.Workload,
		Controller:    rep.Controller,
		Shots:         rep.Shots,
		MeanLatencyUs: rep.MeanLatencyUs,
		Accuracy:      rep.Accuracy,
		CommitRate:    rep.CommitRate,
		Fidelity:      FloatPtr(rep.Fidelity),
		Stages:        rep.Stages,
		Canceled:      rep.Canceled,
	}
}

// EventFrom converts a streaming ShotUpdate to its wire form. withStages
// controls whether the per-stage latency deltas ride along (StreamStages).
func EventFrom(u artery.ShotUpdate, withStages bool) ShotEvent {
	ev := ShotEvent{
		Shot:      u.Shot,
		LatencyNs: u.LatencyNs,
		Fidelity:  FloatPtr(u.Fidelity),
		Sites:     u.Sites,
		Commits:   u.Commits,
		Correct:   u.Correct,
		Fallbacks: u.Fallbacks,
	}
	if withStages {
		ev.Stages = make([]StageDelta, len(u.Stages))
		for i, d := range u.Stages {
			ev.Stages[i] = StageDelta{Stage: d.Stage.String(), Ns: d.Ns}
		}
	}
	return ev
}

// ShotFrom is EventFrom's inverse over events that carry their stage
// deltas (the stream_stages and journaled form): null fidelity maps back
// to NaN and stage names back to stages, order kept. An event without
// stage deltas cannot rebuild the shot's stage table, so it is an error,
// as is an unknown stage name.
func ShotFrom(ev ShotEvent) (artery.ShotUpdate, error) {
	if len(ev.Stages) == 0 {
		return artery.ShotUpdate{}, fmt.Errorf("api: event for shot %d carries no stage deltas (source predates the stream_stages schema?)", ev.Shot)
	}
	u := artery.ShotUpdate{
		Shot:      ev.Shot,
		LatencyNs: ev.LatencyNs,
		Fidelity:  math.NaN(),
		Sites:     ev.Sites,
		Commits:   ev.Commits,
		Correct:   ev.Correct,
		Fallbacks: ev.Fallbacks,
		Stages:    make([]core.StageDelta, len(ev.Stages)),
	}
	if ev.Fidelity != nil {
		u.Fidelity = *ev.Fidelity
	}
	for i, d := range ev.Stages {
		st, ok := trace.StageFromName(d.Stage)
		if !ok {
			return artery.ShotUpdate{}, fmt.Errorf("api: event for shot %d names unknown stage %q", ev.Shot, d.Stage)
		}
		u.Stages[i] = core.StageDelta{Stage: st, Ns: d.Ns}
	}
	return u, nil
}

// FloatPtr maps NaN to nil (JSON null) and everything else to &v.
func FloatPtr(v float64) *float64 {
	if v != v {
		return nil
	}
	return &v
}

// ValidateRequest checks a request at admission time — workload,
// controller, shot-range bounds, option ranges and whether the job's
// backend can run the workload all fail fast (a 400) instead of a failed
// job. maxShots bounds the job's global shot extent (ShotOffset+Shots). It
// returns the workload built during validation so the admission path
// constructs it exactly once.
func ValidateRequest(req Request, maxShots int) (*artery.Workload, error) {
	wl, err := artery.WorkloadByName(req.Workload, req.Param)
	if err != nil {
		return nil, err
	}
	ctrl := controllerName(req)
	known := false
	for _, name := range artery.ControllerNames() {
		if name == ctrl {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("unknown controller %q (known: %v)", ctrl, artery.ControllerNames())
	}
	if req.Shots < 1 || req.Shots > maxShots {
		return nil, fmt.Errorf("shots must lie in [1, %d], got %d", maxShots, req.Shots)
	}
	if req.ShotOffset < 0 {
		return nil, fmt.Errorf("shot_offset must be non-negative, got %d", req.ShotOffset)
	}
	// Overflow-safe form of ShotOffset+Shots > maxShots: Shots is in
	// [1, maxShots] here, so the subtraction cannot wrap, while a huge
	// offset would wrap the sum negative and slip past the cap.
	if req.ShotOffset > maxShots-req.Shots {
		return nil, fmt.Errorf("shot range (offset %d + %d shots) exceeds the %d-shot cap", req.ShotOffset, req.Shots, maxShots)
	}
	if req.DeadlineMs < 0 {
		return nil, fmt.Errorf("deadline_ms must be non-negative, got %d", req.DeadlineMs)
	}
	opts, _, err := LibraryOptions(req)
	if err != nil {
		return nil, err
	}
	if err := artery.Validate(wl, opts...); err != nil {
		return nil, err
	}
	return wl, nil
}

// LibraryOptions maps a request onto the library's functional options
// (everything but the worker count, which is the server's to choose) and
// its canonical controller name.
func LibraryOptions(req Request) ([]artery.Option, string, error) {
	opts := []artery.Option{artery.WithSeed(req.Seed)}
	if o := req.Options; o != nil {
		mode, ok := ModeByName[o.Mode]
		if !ok {
			return nil, "", fmt.Errorf("unknown predictor mode %q (combined|history|trajectory)", o.Mode)
		}
		opts = append(opts,
			artery.WithWindowNs(o.WindowNs),
			artery.WithHistoryDepth(o.HistoryDepth),
			artery.WithTheta(o.Theta),
			artery.WithMode(mode),
			artery.WithQuasiStaticSigma(o.QuasiStaticSigma),
			artery.WithBackend(o.Backend))
		if o.StateSim != nil && !*o.StateSim {
			opts = append(opts, artery.WithoutStateSim())
		}
		if o.DynamicalDecoupling {
			opts = append(opts, artery.WithDynamicalDecoupling())
		}
	}
	return opts, controllerName(req), nil
}

// controllerName is the request's controller, defaulting to ARTERY.
func controllerName(req Request) string {
	if req.Controller == "" {
		return "ARTERY"
	}
	return req.Controller
}
