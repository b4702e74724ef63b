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
// The server alone owns a job's life: execute folds the journaled prefix,
// asks a shot source for the rest of the range, folds, journals and
// streams every shot, and settles the job. The local engine is the
// default source; the scatter-gather coordinator (internal/cluster) is
// the other one, so a sharded job's merge, journal and resume are this
// same code.
//
// The wire schema lives in the shared artery/api package (imported by the
// server, the scatter-gather coordinator and the Go client alike, so the
// three cannot drift).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"artery"
	"artery/api"
	"artery/internal/store"
	"artery/internal/trace"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the admission queue: submissions beyond it are
	// rejected with 429 + Retry-After instead of buffered (default 64).
	QueueDepth int
	// MaxConcurrentJobs is the dispatcher pool size — how many jobs run
	// at once (default 2).
	MaxConcurrentJobs int
	// WorkerBudget is the total shot-level worker budget shared by all
	// concurrent jobs; each job's engine gets WorkerBudget /
	// MaxConcurrentJobs workers (min 1), so many small jobs batch onto a
	// fixed pool instead of each spinning up its own. Results are
	// bit-identical at any budget (default GOMAXPROCS).
	WorkerBudget int
	// MaxShots caps a single request's shot count (default 1_000_000).
	MaxShots int
	// MaxRetainedJobs bounds the finished-job cache: beyond it, the
	// oldest terminal jobs are evicted, keeping server memory bounded
	// under sustained traffic (default 1024).
	MaxRetainedJobs int
	// ReadyCheck, when set, is a readiness predicate beyond "accepting":
	// while it returns an error, /readyz answers 503 with the error text
	// and every submission is shed with a 503 instead of queueing work
	// that cannot run. The coordinator uses it while zero backends are
	// healthy, so load balancers drain a cluster that cannot serve.
	ReadyCheck func() error
	// Source, when set, replaces the local engine as the producer of a
	// job's shots: it runs the global shot range [lo, lo+shots) of req
	// (wl is the workload built at admission), calls emit once per shot
	// in shot order from one goroutine, and reports whether ctx stopped
	// it early. Everything else stays the server's: folding the journaled
	// prefix, journaling and logging each shot, and settling the job. The
	// scatter-gather coordinator (internal/cluster) is a source that runs
	// the range on remote backends.
	Source func(ctx context.Context, req api.Request, wl *artery.Workload, lo, shots int, emit func(artery.ShotUpdate)) (canceled bool, err error)
	// Store, when non-nil, makes jobs durable (see internal/store): every
	// accepted request is journaled before the 202, merged events and
	// results are journaled as they commit, finished jobs survive both
	// memory eviction and restarts (status and stream replay come from
	// disk), and jobs killed mid-run are re-admitted at boot to resume
	// from their last durable shot — byte-identically to an uninterrupted
	// run. Nil keeps the server fully in-memory, exactly as before.
	Store *store.Store
	// CheckpointShots is the journal checkpoint cadence: a durability
	// barrier is forced every N merged shots per job (default 256). Only
	// meaningful with Store.
	CheckpointShots int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxConcurrentJobs == 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.WorkerBudget == 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.MaxShots == 0 {
		c.MaxShots = 1_000_000
	}
	if c.MaxRetainedJobs == 0 {
		c.MaxRetainedJobs = 1024
	}
	if c.CheckpointShots == 0 {
		c.CheckpointShots = 256
	}
	return c
}

// serverMetrics are the service-level instruments exposed on /metrics.
type serverMetrics struct {
	submitted, rejected, shed     *trace.Counter
	completed, failed, canceled   *trace.Counter
	shotsStreamed                 *trace.Counter
	deadlineExpired               *trace.Counter
	calibrations, calibrationHits *trace.Counter
	queueDepth, running, draining *trace.Gauge
	calibBytes                    *trace.Gauge
	jobSeconds                    *trace.Histogram
}

func newServerMetrics(reg *trace.Registry) serverMetrics {
	return serverMetrics{
		submitted:       reg.Counter("artery_server_jobs_submitted_total", "jobs accepted into the queue"),
		rejected:        reg.Counter("artery_server_jobs_rejected_total", "submissions rejected by admission control (429)"),
		shed:            reg.Counter("artery_server_jobs_shed_total", "submissions shed by the admission gate (503)"),
		deadlineExpired: reg.Counter("artery_server_deadline_expired_total", "jobs whose deadline_ms expired (before start or mid-run)"),
		completed:       reg.Counter("artery_server_jobs_completed_total", "jobs finished with a result"),
		failed:          reg.Counter("artery_server_jobs_failed_total", "jobs finished with an error"),
		canceled:        reg.Counter("artery_server_jobs_canceled_total", "queued jobs canceled by shutdown before running"),
		shotsStreamed:   reg.Counter("artery_server_shots_streamed_total", "per-shot updates committed across all jobs"),
		calibrations:    reg.Counter("artery_server_calibrations_total", "readout calibrations run (calibration cache misses)"),
		calibrationHits: reg.Counter("artery_server_calibration_hits_total", "jobs that reused a cached readout calibration"),
		queueDepth:      reg.Gauge("artery_server_queue_depth", "jobs waiting in the admission queue"),
		running:         reg.Gauge("artery_server_jobs_running", "jobs currently executing"),
		draining:        reg.Gauge("artery_server_draining", "1 while the server is shutting down"),
		calibBytes:      reg.Gauge("artery_server_calibration_cache_bytes", "bytes the calibration cache retains: state tables and the structures around them"),
		jobSeconds:      reg.Histogram("artery_server_job_seconds", "job wall time from admission to completion", trace.DefaultJobSecondsBuckets()),
	}
}

// Server is the job service. Construct with New, attach Handler to an
// http.Server, call Start, and Shutdown on SIGTERM.
type Server struct {
	cfg Config
	reg *trace.Registry
	m   serverMetrics
	mux *http.ServeMux

	queue     chan *Job
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup

	// calib memoizes readout calibration across jobs.
	calib artery.CalibrationCache

	mu        sync.Mutex
	jobs      map[string]*Job
	retired   []string // terminal jobs in finish order, for eviction
	nextID    int
	accepting bool
	draining  bool
	runningN  int

	// now and runJob are test seams: the clock, and the job executor the
	// dispatcher invokes (defaults to (*Server).execute).
	now    func() time.Time
	runJob func(ctx context.Context, j *Job)
}

// New builds a server (without starting its dispatcher; see Start).
func New(cfg Config) *Server {
	reg := trace.NewRegistry()
	s := &Server{
		cfg:       cfg.withDefaults(),
		reg:       reg,
		m:         newServerMetrics(reg),
		jobs:      map[string]*Job{},
		accepting: true,
		now:       time.Now,
	}
	s.queue = make(chan *Job, s.cfg.QueueDepth)
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	s.runJob = s.execute
	if s.cfg.Source == nil {
		s.cfg.Source = s.runLocal
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Store != nil {
		s.cfg.Store.Instrument(reg)
		s.recoverFromStore()
	}
	return s
}

// recoverFromStore replays the journal's job index at boot (New runs
// before any handler or worker, so no locking): the id watermark is
// restored so evicted ids answer 410 instead of being reissued, terminal
// jobs stay on disk (served on demand), and jobs that were live when the
// previous process died are re-admitted as continuations — their durable
// event prefix is loaded and execute asks the source only for the
// remaining range, stitching a result byte-identical to an uninterrupted
// run.
func (s *Server) recoverFromStore() {
	st := s.cfg.Store
	for _, rec := range st.Jobs() {
		if raw, ok := strings.CutPrefix(rec.ID, "job-"); ok {
			if n, err := strconv.Atoi(raw); err == nil && n > s.nextID {
				s.nextID = n
			}
		}
		if api.Terminal(rec.State) {
			continue
		}
		wl, err := api.ValidateRequest(rec.Req, s.cfg.MaxShots)
		if err != nil {
			st.Terminal(rec.ID, api.StateFailed, fmt.Sprintf("recovered job failed re-validation: %v", err), nil)
			continue
		}
		events, err := st.Events(rec.ID, 0)
		if err != nil {
			st.Terminal(rec.ID, api.StateFailed, fmt.Sprintf("recovered job's journal could not be read: %v", err), nil)
			continue
		}
		j := newJob(rec.ID, rec.Req, wl, s.now())
		j.store, j.ckptEvery = st, s.cfg.CheckpointShots
		j.prefix = events
		j.journaled = len(events)
		for _, ev := range events {
			j.events = append(j.events, api.TrimStages(ev, rec.Req.StreamStages))
		}
		select {
		case s.queue <- j:
			s.jobs[j.ID] = j
		default:
			st.Terminal(rec.ID, api.StateFailed, "recovered job exceeds the admission queue", nil)
		}
	}
	s.m.queueDepth.Set(float64(len(s.queue)))
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry (the /metrics source).
func (s *Server) Registry() *trace.Registry { return s.reg }

// Start launches the dispatcher pool: MaxConcurrentJobs workers pulling
// from the bounded queue.
func (s *Server) Start() {
	for i := 0; i < s.cfg.MaxConcurrentJobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains the service: admission stops (POST → 503, /readyz →
// 503), the shared run context is canceled so in-flight jobs stop at
// their next shot-batch boundary and complete with their deterministic
// canceled prefix, still-queued jobs are marked canceled without running,
// and the dispatcher pool exits. It returns ctx.Err() if the drain
// outlives ctx. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.accepting = false
	s.draining = true
	s.m.draining.Set(1)
	close(s.queue) // admission sends happen under mu, so no send can race this
	s.mu.Unlock()
	s.cancelRun()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker is one dispatcher goroutine: it pulls queued jobs and runs them
// on the shared budget until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.m.queueDepth.Set(float64(len(s.queue)))
		if s.isDraining() {
			// Drain: queued jobs are canceled, never started.
			j.cancel("server shutting down before the job started", s.now())
			s.m.canceled.Inc()
			s.retire(j)
			continue
		}
		j.setRunning()
		s.m.running.Set(s.runningDelta(+1))
		s.startJob(j)
		s.m.running.Set(s.runningDelta(-1))
		st := j.snapshot(s.now())
		switch st.State {
		case api.StateDone:
			s.m.completed.Inc()
			s.m.jobSeconds.Observe(st.ElapsedSec)
		case api.StateFailed:
			s.m.failed.Inc()
		case api.StateCanceled:
			s.m.canceled.Inc()
		}
		s.retire(j)
	}
}

// startJob applies the job's deadline (api.Request.DeadlineMs, measured
// from admission) and invokes the executor. A deadline that expired while
// the job sat in the queue fails it without running; one that expires
// mid-run cancels the wrapped context, ending the job as a deterministic
// canceled prefix — exactly like a graceful drain.
func (s *Server) startJob(j *Job) {
	ctx := s.runCtx
	if j.Req.DeadlineMs > 0 {
		deadline := j.accepted.Add(time.Duration(j.Req.DeadlineMs) * time.Millisecond)
		if !s.now().Before(deadline) {
			s.m.deadlineExpired.Inc()
			j.fail(fmt.Sprintf("deadline_ms=%d expired before the job started (queued %.3fs)",
				j.Req.DeadlineMs, s.now().Sub(j.accepted).Seconds()), s.now())
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(s.runCtx, deadline)
		defer cancel()
		defer func() {
			if ctx.Err() == context.DeadlineExceeded {
				s.m.deadlineExpired.Inc()
			}
		}()
	}
	s.runSafely(ctx, j)
}

// runSafely invokes the job executor, converting a panic into a failed
// job: workers are the only dispatchers, so a panic escaping one would
// take down the whole process on behalf of a single bad request.
func (s *Server) runSafely(ctx context.Context, j *Job) {
	defer func() {
		if r := recover(); r != nil {
			if !api.Terminal(j.snapshot(s.now()).State) {
				j.fail(fmt.Sprintf("internal error: job executor panicked: %v", r), s.now())
			}
		}
	}()
	s.runJob(ctx, j)
}

// runningDelta adjusts the running-jobs count under mu and returns the
// new value for the gauge.
func (s *Server) runningDelta(d int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runningN += d
	return float64(s.runningN)
}

// perJobWorkers is each job's share of the worker budget.
func (s *Server) perJobWorkers() int {
	w := s.cfg.WorkerBudget / s.cfg.MaxConcurrentJobs
	if w < 1 {
		w = 1
	}
	return w
}

// execute runs one job end to end; it is the only code that folds a
// job's shots. The result is one fold (api.Merger) over the job's
// journaled prefix and then every shot the source emits. The prefix is
// empty for a fresh job; a job recovered from the journal mid-run carries
// the events that were durable, and the source runs only the remaining
// range [offset+k, offset+shots), or nothing when the journal holds every
// shot and only the terminal record was lost. Per-shot RNG streams are
// drawn by global shot index, so the continuation's events, and the
// folded result, are byte-identical to the uninterrupted run. The result
// of a source that ctx stopped early is the deterministic canceled
// prefix.
func (s *Server) execute(ctx context.Context, j *Job) {
	agg := api.NewMerger(j.Req, j.wl)
	for _, ev := range j.prefix {
		if err := agg.Add(ev); err != nil {
			j.fail(fmt.Sprintf("journaled prefix: %v", err), s.now())
			return
		}
	}
	canceled := false
	if k := len(j.prefix); k < j.Req.Shots {
		// Journaled events always carry stage deltas (the resume fold
		// needs them); without a store this is the exact pre-durability
		// stream.
		withStages := j.Req.StreamStages || j.store != nil
		var err error
		canceled, err = s.cfg.Source(ctx, j.Req, j.wl, j.Req.ShotOffset+k, j.Req.Shots-k, func(u artery.ShotUpdate) {
			agg.AddShot(u)
			j.append(api.EventFrom(u, withStages))
			s.m.shotsStreamed.Inc()
		})
		if err != nil {
			j.fail(err.Error(), s.now())
			return
		}
	}
	j.complete(agg.Result(canceled), s.now())
}

// runLocal is the default Source: the local engine. The job's system is
// built from the request's seed through the server's calibration cache
// (jobs with equal seed, window and history depth share one read-only
// calibrated channel, which changes no output byte), so results are
// bit-identical regardless of what else is running or ran before.
func (s *Server) runLocal(ctx context.Context, req api.Request, wl *artery.Workload, lo, shots int, emit func(artery.ShotUpdate)) (bool, error) {
	opts, ctrl, err := api.LibraryOptions(req)
	if err != nil {
		return false, err
	}
	sys, err := s.calib.New(append(opts, artery.WithWorkers(s.perJobWorkers()))...)
	s.publishCalibration()
	if err != nil {
		return false, err
	}
	rep, err := sys.RunRangeStream(ctx, ctrl, wl, lo, shots, emit)
	return rep.Canceled, err
}

// publishCalibration copies the calibration cache's counts into the
// metrics registry. The cache's counts only move inside its New, so
// calling this after every New keeps /metrics exact; mu orders the
// copies so the counters never step back.
func (s *Server) publishCalibration() {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits, misses, bytes := s.calib.Stats()
	s.m.calibrations.Add(misses - s.m.calibrations.Value())
	s.m.calibrationHits.Add(hits - s.m.calibrationHits.Value())
	s.m.calibBytes.Set(float64(bytes))
}

// handleSubmit is POST /v1/jobs: decode, validate, admit.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req api.Request
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err), 0)
		return
	}
	wl, err := api.ValidateRequest(req, s.cfg.MaxShots)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if s.cfg.ReadyCheck != nil {
		if gerr := s.cfg.ReadyCheck(); gerr != nil {
			s.m.shed.Inc()
			writeError(w, http.StatusServiceUnavailable, gerr.Error(), 0)
			return
		}
	}

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down", 0)
		return
	}
	if !s.roomForJobLocked() {
		s.mu.Unlock()
		s.reject(w, "job table full")
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), req, wl, s.now())
	if st := s.cfg.Store; st != nil {
		// Journal the job before it can run or be acknowledged: the 202 is
		// the durability promise, and the journal must hold the job record
		// before any of its events (recovery drops undeclared events).
		j.store, j.ckptEvery = st, s.cfg.CheckpointShots
		if err := st.JobSubmitted(j.ID, req); err != nil {
			// The id stays burned — a partial record may have reached disk —
			// and a best-effort terminal record stops recovery from
			// resurrecting a job the client was told failed.
			st.Terminal(j.ID, api.StateFailed, "journal append failed at admission", nil)
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("journal append failed: %v", err), 0)
			return
		}
	}
	select {
	case s.queue <- j:
	default:
		if j.store != nil {
			// The id is journaled, so it cannot be reused; record the
			// rejection so recovery does not re-admit a job no client owns.
			j.store.Terminal(j.ID, api.StateCanceled, "admission queue full", nil)
		} else {
			s.nextID-- // job never existed
		}
		s.mu.Unlock()
		s.reject(w, "admission queue full")
		return
	}
	s.jobs[j.ID] = j
	depth := len(s.queue)
	s.mu.Unlock()

	s.m.submitted.Inc()
	s.m.queueDepth.Set(float64(depth))
	writeJSON(w, http.StatusAccepted, j.snapshot(s.now()))
}

// roomForJobLocked makes room in the job table by evicting the oldest
// terminal jobs; it reports false when the table is full of live jobs.
// Callers hold s.mu.
func (s *Server) roomForJobLocked() bool {
	for len(s.jobs) >= s.cfg.MaxRetainedJobs && len(s.retired) > 0 {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
	return len(s.jobs) < s.cfg.MaxRetainedJobs
}

// retire records a terminal job as evictable.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, j.ID)
}

// reject answers an over-capacity submission: 429 with a Retry-After
// estimate derived from the backlog ahead of the caller and the observed
// job wall times (backpressure, not buffering).
func (s *Server) reject(w http.ResponseWriter, msg string) {
	s.m.rejected.Inc()
	retry := s.retryAfterEstimate()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, msg, retry)
}

// retryAfterEstimate predicts when queue room is likely: the backlog
// ahead of the caller (plus one for the caller) times the mean observed
// job wall time, divided across the dispatcher pool. Before any job has
// finished the mean defaults to one second; the estimate is clamped to
// [1, 60] so a pathological backlog never tells clients to vanish for
// an hour.
func (s *Server) retryAfterEstimate() int {
	mean := 1.0
	if n := s.m.jobSeconds.Count(); n > 0 {
		mean = s.m.jobSeconds.Sum() / float64(n)
	}
	est := int(math.Ceil(float64(len(s.queue)+1) * mean / float64(s.cfg.MaxConcurrentJobs)))
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// handleStatus is GET /v1/jobs/{id}: the in-memory job, or — when a
// store is configured — a terminal job served from the journal (evicted
// from memory, or finished before a restart).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.job(id); ok {
		writeJSON(w, http.StatusOK, j.snapshot(s.now()))
		return
	}
	if rec, ok := s.storeLookup(id); ok {
		writeJSON(w, http.StatusOK, statusFromRecord(rec))
		return
	}
	s.writeUnknownJob(w, id)
}

// storeLookup resolves an id to a disk-served terminal job. Live journal
// records always correspond to an in-memory job (re-admission failures
// get terminal records), so only terminal ones are served from disk.
func (s *Server) storeLookup(id string) (store.JobRecord, bool) {
	if s.cfg.Store == nil {
		return store.JobRecord{}, false
	}
	rec, ok := s.cfg.Store.Lookup(id)
	if !ok || !api.Terminal(rec.State) {
		return store.JobRecord{}, false
	}
	return rec, true
}

// statusFromRecord renders a journal record as the status document.
func statusFromRecord(rec store.JobRecord) api.JobStatus {
	return api.JobStatus{
		ID:            rec.ID,
		State:         rec.State,
		Request:       rec.Req,
		ShotsStreamed: rec.Events,
		Error:         rec.Error,
		Result:        rec.Result,
		ElapsedSec:    rec.FinishedAt.Sub(rec.SubmittedAt).Seconds(),
	}
}

// writeUnknownJob distinguishes ids this server issued whose records have
// since been evicted (410 Gone with the typed "evicted" code — the id is
// authoritative: retrying will never find it) from ids that never existed
// (404). Ids are sequential, so the issued-id watermark makes the check
// O(1) with no tombstone table.
func (s *Server) writeUnknownJob(w http.ResponseWriter, id string) {
	if raw, ok := strings.CutPrefix(id, "job-"); ok {
		if n, err := strconv.Atoi(raw); err == nil && n >= 1 {
			s.mu.Lock()
			issued := n <= s.nextID
			s.mu.Unlock()
			if issued {
				writeJSON(w, http.StatusGone, api.ErrorBody{Error: "job evicted", Code: api.CodeEvicted})
				return
			}
		}
	}
	writeError(w, http.StatusNotFound, "unknown job", 0)
}

// handleStream is GET /v1/jobs/{id}/stream: NDJSON per-shot events,
// replaying the committed history and then following live until the job
// reaches a terminal state (the final line carries "done":true plus the
// result). ?from=N skips the first N events — a reconnecting client
// resumes from the first event it has not yet seen, because the log is
// deterministic and append-only.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		if rec, ok := s.storeLookup(id); ok {
			s.streamFromStore(w, r, rec)
			return
		}
		s.writeUnknownJob(w, id)
		return
	}
	from, ok := parseFrom(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := from
	for {
		events, _, end, wait := j.follow(next)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if end.Done {
			enc.Encode(end)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// parseFrom reads the ?from=N stream-resume cursor, answering the 400
// itself on a malformed value.
func parseFrom(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("from")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("from must be a non-negative integer, got %q", v), 0)
		return 0, false
	}
	return n, true
}

// streamFromStore replays a disk-served terminal job: the journaled
// per-shot events — trimmed to the subscriber schema the job was
// submitted with — then the terminal line. Byte-identical to the stream
// the original process served.
func (s *Server) streamFromStore(w http.ResponseWriter, r *http.Request, rec store.JobRecord) {
	from, ok := parseFrom(w, r)
	if !ok {
		return
	}
	events, err := s.cfg.Store.Events(rec.ID, from)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("journal read failed: %v", err), 0)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(api.TrimStages(ev, rec.Req.StreamStages)); err != nil {
			return
		}
	}
	enc.Encode(api.StreamEnd{Done: true, State: rec.State, Error: rec.Error, Result: rec.Result})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleMetrics is GET /metrics: the Prometheus text exposition of the
// server's registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteProm(w)
}

// handleHealthz reports process liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports admission readiness: 200 while accepting, 503
// once draining (load balancers stop routing before the drain completes).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := s.accepting
	s.mu.Unlock()
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	if s.cfg.ReadyCheck != nil {
		if err := s.cfg.ReadyCheck(); err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error(), 0)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	writeJSON(w, status, api.ErrorBody{Error: msg, RetryAfterSec: retryAfter})
}
