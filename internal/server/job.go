package server

import (
	"sync"
	"time"

	"artery"
	"artery/api"
	"artery/internal/store"
)

// Job is one submitted run moving through the queue. All mutable state is
// guarded by mu; every mutation broadcasts to streaming subscribers by
// closing (and replacing) notify.
type Job struct {
	ID  string
	Req api.Request
	// wl is the workload built (and validated) at admission time;
	// building it once keeps submit errors synchronous and the run path
	// cheap.
	wl *artery.Workload

	// Durability seam, set at admission (or recovery) when the server has
	// a store. prefix is the merged-event prefix recovered from the
	// journal after a crash — the executor stitches its continuation onto
	// it. journaled counts the job's durable events (prefix included) for
	// the checkpoint cadence; journalBroken latches on the first failed
	// event append so the durable prefix stays contiguous (a gap would
	// break resume). These three are touched only by the single executor
	// goroutine that owns the job's merge path, so they need no lock.
	store         *store.Store
	ckptEvery     int
	prefix        []api.ShotEvent
	journaled     int
	journalBroken bool

	mu       sync.Mutex
	state    string
	err      string
	result   *api.Result
	events   []api.ShotEvent
	notify   chan struct{}
	accepted time.Time
	finished time.Time
}

func newJob(id string, req api.Request, wl *artery.Workload, now time.Time) *Job {
	return &Job{
		ID:       id,
		Req:      req,
		wl:       wl,
		state:    api.StateQueued,
		notify:   make(chan struct{}),
		accepted: now,
	}
}

// broadcast wakes every subscriber. Callers must hold j.mu.
func (j *Job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// setRunning transitions queued → running.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = api.StateRunning
	j.broadcast()
}

// complete records the final result (including deterministic canceled
// prefixes, which are still results) and transitions to done.
func (j *Job) complete(res *api.Result, now time.Time) {
	j.mu.Lock()
	j.state = api.StateDone
	j.result = res
	j.finished = now
	j.broadcast()
	j.mu.Unlock()
	j.journalEnd(api.StateDone, "", res)
}

// fail records a job error (invalid options, engine failure).
func (j *Job) fail(msg string, now time.Time) {
	j.mu.Lock()
	j.state = api.StateFailed
	j.err = msg
	j.finished = now
	j.broadcast()
	j.mu.Unlock()
	j.journalEnd(api.StateFailed, msg, nil)
}

// cancel marks a queued job that will never run (server drain).
func (j *Job) cancel(msg string, now time.Time) {
	j.mu.Lock()
	j.state = api.StateCanceled
	j.err = msg
	j.finished = now
	j.broadcast()
	j.mu.Unlock()
	j.journalEnd(api.StateCanceled, msg, nil)
}

// journalEnd writes the job's terminal record. The store fsyncs it (a
// result promise survives the next crash); append failures are already
// counted by the store and a live client still gets its in-memory result.
func (j *Job) journalEnd(state, errMsg string, res *api.Result) {
	if j.store == nil {
		return
	}
	j.store.Terminal(j.ID, state, errMsg, res)
}

// Workload, AppendFull, Prefix, Complete and Fail are the
// external-executor accessors and mutators (see Config.Executor): a
// custom executor commits merged per-shot events and drives the job to
// its terminal state through them.

// Workload returns the workload built from the request at admission.
func (j *Job) Workload() *artery.Workload { return j.wl }

// AppendFull commits one merged per-shot event that carries its stage
// deltas: journaled first (when a store is configured, with a checkpoint
// barrier every ckptEvery events), then appended to the in-memory log
// trimmed to the subscriber schema (stage deltas ride the public stream
// only when the request asked for them). Must be called from the job's
// single merge-path goroutine, in shot order.
func (j *Job) AppendFull(ev api.ShotEvent) {
	if j.store != nil && !j.journalBroken {
		if err := j.store.ShotEvent(j.ID, ev); err != nil {
			// First failure latches: journaling more events would leave a
			// gap in the durable prefix, which must stay contiguous for
			// resume to be sound. The job itself keeps running.
			j.journalBroken = true
		} else {
			j.journaled++
			if j.ckptEvery > 0 && j.journaled%j.ckptEvery == 0 {
				j.store.Checkpoint(j.ID, j.journaled)
			}
		}
	}
	// The in-memory log is the stream's replay buffer, so late subscribers
	// see the full history.
	j.mu.Lock()
	j.events = append(j.events, api.TrimStages(ev, j.Req.StreamStages))
	j.broadcast()
	j.mu.Unlock()
}

// Prefix returns the job's recovered merged-event prefix: the per-shot
// events (stage deltas included) that were durable when the previous
// process died. Executors stitch their continuation onto it — run only
// [ShotOffset+len(prefix), ShotOffset+Shots) and seed the result fold
// with these events. Empty for jobs admitted by this process.
func (j *Job) Prefix() []api.ShotEvent { return j.prefix }

// Complete records the job's final result and transitions it to done.
func (j *Job) Complete(res *api.Result) { j.complete(res, time.Now()) }

// Fail records a job error and transitions it to failed.
func (j *Job) Fail(msg string) { j.fail(msg, time.Now()) }

// snapshot returns the job's status document.
func (j *Job) snapshot(now time.Time) api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := now
	if !j.finished.IsZero() {
		end = j.finished
	}
	return api.JobStatus{
		ID:            j.ID,
		State:         j.state,
		Request:       j.Req,
		ShotsStreamed: len(j.events),
		Error:         j.err,
		Result:        j.result,
		ElapsedSec:    end.Sub(j.accepted).Seconds(),
	}
}

// follow returns the events in [from, len), the current state/err/result,
// and a channel that closes on the next mutation — everything a streaming
// subscriber needs to copy state out without holding the lock while
// writing to a (possibly slow) client.
func (j *Job) follow(from int) (events []api.ShotEvent, state string, end api.StreamEnd, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		events = append(events, j.events[from:]...)
	}
	state = j.state
	if api.Terminal(j.state) {
		end = api.StreamEnd{Done: true, State: j.state, Error: j.err, Result: j.result}
	}
	return events, state, end, j.notify
}
