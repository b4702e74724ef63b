package api

import (
	"artery"
	"artery/internal/core"
)

// Merger folds a job's per-shot events into its Result through
// core.Fold, the engine's own merge, so the result bytes equal a single
// node's by construction. One subsystem folds through it, in global shot
// order: the job server (internal/server), which folds a crashed job's
// journaled event prefix and then every shot its source emits, local or
// sharded (for a fresh job the prefix is empty).
type Merger struct {
	workload, controller string
	fold                 core.Fold
}

// NewMerger starts a fold for one request, named after wl — the workload
// built from the request at admission — and the request's controller.
func NewMerger(req Request, wl *artery.Workload) *Merger {
	return &Merger{workload: wl.Name, controller: controllerName(req)}
}

// Add folds one wire event; ShotFrom says which events it rejects.
func (m *Merger) Add(ev ShotEvent) error {
	u, err := ShotFrom(ev)
	if err != nil {
		return err
	}
	m.fold.Add(u)
	return nil
}

// AddShot folds one live shot.
func (m *Merger) AddShot(u artery.ShotUpdate) { m.fold.Add(u) }

// Result renders the fold as the job's result document.
func (m *Merger) Result(canceled bool) *Result {
	r := m.fold.Result(m.workload, m.controller, canceled)
	return ResultFrom(artery.Report{
		Workload:      r.Workload,
		Controller:    r.Controller,
		Shots:         r.Shots,
		MeanLatencyUs: r.MeanLatencyNs / 1000,
		Accuracy:      r.Accuracy,
		CommitRate:    r.CommitRate,
		Fidelity:      r.MeanFidelity,
		Stages:        r.Stages,
		Canceled:      r.Canceled,
	})
}

// TrimStages renders an event as a public stream emits it: the stage
// deltas ride along only when the subscriber asked for them. Journaled
// and shard-streamed events always carry stages (the merge fold needs
// them); servers trim them at the serving edge.
func TrimStages(ev ShotEvent, withStages bool) ShotEvent {
	if !withStages {
		ev.Stages = nil
	}
	return ev
}
