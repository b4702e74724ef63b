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
	// journal after a crash — execute folds it and asks the source only
	// for the rest. journaled counts the job's durable events (prefix
	// included) for the checkpoint cadence; journalBroken latches on the
	// first failed event append so the durable prefix stays contiguous (a
	// gap would break resume). These, and wl, are touched only by the
	// dispatcher goroutine that runs the job, so they need no lock.
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
func (j *Job) complete(res *api.Result, now time.Time) { j.settle(api.StateDone, "", res, now) }

// fail records a job error (invalid options, engine failure).
func (j *Job) fail(msg string, now time.Time) { j.settle(api.StateFailed, msg, nil, now) }

// cancel marks a queued job that will never run (server drain).
func (j *Job) cancel(msg string, now time.Time) { j.settle(api.StateCanceled, msg, nil, now) }

// settle moves the job to a terminal state and journals the terminal
// record. The store fsyncs it (a result promise survives the next crash);
// append failures are already counted by the store and a live client
// still gets its in-memory result. The workload and the recovered prefix
// go: a retained finished job keeps only what status and stream serve.
func (j *Job) settle(state, msg string, res *api.Result, now time.Time) {
	j.wl, j.prefix = nil, nil
	j.mu.Lock()
	j.state, j.err, j.result, j.finished = state, msg, res, now
	j.broadcast()
	j.mu.Unlock()
	if j.store != nil {
		j.store.Terminal(j.ID, state, msg, res)
	}
}

// append commits one merged per-shot event that carries its stage deltas:
// journaled first (when a store is configured, with a checkpoint barrier
// every ckptEvery events), then appended to the in-memory log trimmed to
// the subscriber schema (stage deltas ride the public stream only when
// the request asked for them). Called only from execute, in shot order.
func (j *Job) append(ev api.ShotEvent) {
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
