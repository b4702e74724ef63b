// Package server is arteryd's serving subsystem: an HTTP/JSON job
// service in front of the deterministic parallel engine. It exposes
//
//	POST /v1/jobs             submit a workload run (202, or 429 + Retry-After when the queue is full)
//	GET  /v1/jobs/{id}        job status and, when finished, the result
//	GET  /v1/jobs/{id}/stream NDJSON per-shot updates as the merge path commits shots (?from=N resumes)
//	GET  /metrics             Prometheus text exposition of the server's counters/gauges/histograms
//	GET  /healthz, /readyz    liveness / admission readiness
//
// A bounded queue provides backpressure (admission control never buffers
// unbounded memory), a fixed-size dispatcher pool shares the machine's
// worker budget across concurrent jobs, every job runs through
// artery.RunRangeStream with its own seed (jobs with equal seed, window
// and history depth share one read-only calibration) — so results are
// bit-identical regardless of co-tenancy — and graceful shutdown stops
// admission, cancels in-flight jobs via their context and reports each
// one's deterministic canceled prefix.
//
// The wire schema lives in the shared artery/api package (imported by the
// server, the scatter-gather coordinator and the Go client alike, so the
// three cannot drift). The aliases below preserve this package's original
// names.
package server

import "artery/api"

// Wire types, shared with the coordinator and the client.
//
// Deprecated: the canonical definitions moved to artery/api; these aliases
// remain so existing imports keep compiling. New code should import
// artery/api directly.
type (
	// Request is the POST /v1/jobs body (see api.Request).
	Request = api.Request
	// RequestOptions mirrors the artery.Options knobs a wire request may set.
	RequestOptions = api.RequestOptions
	// JobStatus is the GET /v1/jobs/{id} body (and the POST response).
	JobStatus = api.JobStatus
	// Result is the wire form of an artery.Report.
	Result = api.Result
	// Stage is one row of the per-stage latency breakdown.
	Stage = api.Stage
	// ShotEvent is one NDJSON line of GET /v1/jobs/{id}/stream.
	ShotEvent = api.ShotEvent
	// StreamEnd is the terminal NDJSON line of a stream.
	StreamEnd = api.StreamEnd
	// ErrorBody is the JSON body of every non-2xx response.
	ErrorBody = api.ErrorBody
)

// Job states.
//
// Deprecated: use the api package's constants.
const (
	StateQueued   = api.StateQueued
	StateRunning  = api.StateRunning
	StateDone     = api.StateDone
	StateFailed   = api.StateFailed
	StateCanceled = api.StateCanceled
)
