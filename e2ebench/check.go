package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"artery"
	"artery/api"
)

// libraryRun executes a request directly through the library, the way a
// user of the artery package would: the reference the service's result
// and event bytes must equal. It models the request fields the generated
// workloads set and refuses any other option rather than ignore it.
func libraryRun(ctx context.Context, req api.Request) (*api.Result, []api.ShotEvent, error) {
	var o api.RequestOptions
	if req.Options != nil {
		o = *req.Options
	}
	stateSim, backend := o.StateSim, o.Backend
	o.StateSim, o.Backend = nil, ""
	if o != (api.RequestOptions{}) || req.DeadlineMs != 0 {
		return nil, nil, fmt.Errorf("library reference does not model the options of %+v", req)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	opts := []artery.Option{artery.WithSeed(seed), artery.WithWorkers(runtime.GOMAXPROCS(0))}
	if stateSim != nil && !*stateSim {
		opts = append(opts, artery.WithoutStateSim())
	}
	if backend != "" {
		opts = append(opts, artery.WithBackend(backend))
	}
	sys, err := artery.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	wl, err := artery.WorkloadByName(req.Workload, req.Param)
	if err != nil {
		return nil, nil, err
	}
	ctrl := req.Controller
	if ctrl == "" {
		ctrl = "ARTERY"
	}
	var events []api.ShotEvent
	rep, err := sys.RunRangeStream(ctx, ctrl, wl, req.ShotOffset, req.Shots, func(u artery.ShotUpdate) {
		events = append(events, api.EventFrom(u, req.StreamStages))
	})
	if err != nil {
		return nil, nil, err
	}
	return api.ResultFrom(rep), events, nil
}

// matchLibrary compares one job's streamed events and result with a
// direct library run of its request, byte for byte. For a sharded job
// the library run is a single-node run of the whole range.
func matchLibrary(ctx context.Context, rec *jobRecord) error {
	res, events, err := libraryRun(ctx, rec.req)
	if err != nil {
		return fmt.Errorf("library run: %w", err)
	}
	if err := sameJSON("service result", rec.result, "library", res); err != nil {
		return err
	}
	if len(events) != len(rec.events) {
		return fmt.Errorf("library run produced %d events, the service %d", len(events), len(rec.events))
	}
	for i := range events {
		if err := sameJSON(fmt.Sprintf("service event %d", i), rec.events[i], "library", events[i]); err != nil {
			return err
		}
	}
	return nil
}

// sameJSON reports whether two values encode to the same bytes.
func sameJSON(what string, got any, ref string, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s differs from the %s one:\n got  %s\n want %s", what, ref, g, w)
	}
	return nil
}

// checkSample runs the library comparison for the sampled jobs, `clients`
// at a time, and marks each mismatch on its job record.
func checkSample(ctx context.Context, p *phase, sample []int) {
	sem := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for _, i := range sample {
		rec := &p.jobs[i]
		if rec.err != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rec.err = matchLibrary(ctx, rec)
		}()
	}
	wg.Wait()
}

// samePasses requires a traced pass to deliver exactly the result bytes
// of the untraced pass over the same job list, marking each job that
// differs: tracing must never change output.
func samePasses(untraced, traced *phase) {
	for i := range traced.jobs {
		a, b := untraced.jobs[i].result, traced.jobs[i].result
		if a == nil || b == nil {
			continue // already failed its own checks
		}
		if err := sameJSON(fmt.Sprintf("traced result of job %d", i), b, "untraced", a); err != nil {
			traced.jobs[i].err = err
		}
	}
}
