package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"artery/api"
	"artery/internal/server"
)

// TestSubmitRetriesOn429HonoringRetryAfter fakes a server that rejects
// the first two submissions with 429 + Retry-After: 2 and accepts the
// third. The client must retry exactly twice, sleeping a jittered
// fraction of the server's estimate each time.
func TestSubmitRetriesOn429HonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorBody{Error: "queue full", RetryAfterSec: 2})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobStatus{ID: "job-1", State: api.StateQueued})
	}))
	defer ts.Close()

	var slept []time.Duration
	var hooks []RetryInfo
	c := MustNew(ts.URL, WithRetries(5), WithRetryHook(func(ri RetryInfo) { hooks = append(hooks, ri) }))
	c.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }

	js, err := c.Submit(context.Background(), Request{Workload: "qrw", Param: 3, Shots: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if js.ID != "job-1" {
		t.Errorf("job ID %q", js.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if len(slept) != 2 || len(hooks) != 2 {
		t.Fatalf("%d sleeps, %d hooks, want 2 each", len(slept), len(hooks))
	}
	for i, d := range slept {
		// Retry-After: 2 jittered into [1s, 2s] — the server's estimate
		// must replace the (much smaller) exponential base.
		if d < time.Second || d > 2*time.Second {
			t.Errorf("sleep %d = %v, want within [1s, 2s] of Retry-After", i, d)
		}
		if hooks[i].Status != http.StatusTooManyRequests || !hooks[i].RetryAfter || hooks[i].Delay != d {
			t.Errorf("hook %d = %+v, want 429 with Retry-After and delay %v", i, hooks[i], d)
		}
	}
}

// TestSubmitRetriesOn5xxWithBackoff checks transient server errors use
// the exponential schedule: base, 2×base, jittered into [d/2, d].
func TestSubmitRetriesOn5xxWithBackoff(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobStatus{ID: "job-2"})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := MustNew(ts.URL, WithBackoff(100*time.Millisecond, 5*time.Second))
	c.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }
	if _, err := c.Submit(context.Background(), Request{Workload: "qrw", Param: 3, Shots: 5}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("%d sleeps, want 2", len(slept))
	}
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		if slept[i] < want/2 || slept[i] > want {
			t.Errorf("sleep %d = %v, want within [%v, %v]", i, slept[i], want/2, want)
		}
	}
}

// TestSubmitFailsFastOn400 checks non-429 client errors are not retried.
func TestSubmitFailsFastOn400(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorBody{Error: "unknown workload"})
	}))
	defer ts.Close()

	c := MustNew(ts.URL)
	c.sleep = func(context.Context, time.Duration) error {
		t.Error("client slept on a non-retryable error")
		return nil
	}
	_, err := c.Submit(context.Background(), Request{Workload: "nope", Shots: 5})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want the server's message", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (fail fast)", got)
	}
}

// TestSubmitExhaustsRetries checks the retry budget bounds a persistently
// full server.
func TestSubmitExhaustsRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorBody{Error: "queue full"})
	}))
	defer ts.Close()

	c := MustNew(ts.URL, WithRetries(2))
	c.sleep = func(context.Context, time.Duration) error { return nil }
	_, err := c.Submit(context.Background(), Request{Workload: "qrw", Param: 3, Shots: 5})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v, want the final 429", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

// TestEndToEnd drives the client against a real in-process server:
// Submit, Stream to completion, Wait, Job, Metrics.
func TestEndToEnd(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := MustNew(ts.URL, WithTimeout(30*time.Second))

	off := false
	const shots = 25
	js, err := c.Submit(ctx, Request{
		Workload: "qrw", Param: 3, Shots: shots, Seed: 17,
		Options: &RequestOptions{StateSim: &off},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	st, err := c.Stream(ctx, js.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()
	var events []ShotEvent
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		events = append(events, ev)
	}
	end := st.End()
	if end == nil || end.State != api.StateDone || end.Result == nil {
		t.Fatalf("stream end %+v", end)
	}
	if len(events) != shots || end.Result.Shots != shots {
		t.Fatalf("streamed %d events, result %d shots, want %d", len(events), end.Result.Shots, shots)
	}
	for i, ev := range events {
		if ev.Shot != i {
			t.Fatalf("event %d carries shot %d: out of order", i, ev.Shot)
		}
	}

	final, err := c.Wait(ctx, js.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateDone || final.ShotsStreamed != shots {
		t.Fatalf("final status %+v", final)
	}

	got, err := c.Job(ctx, js.ID)
	if err != nil || got.ID != js.ID {
		t.Fatalf("Job: %+v, %v", got, err)
	}
	if _, err := c.Job(ctx, "job-999"); err == nil {
		t.Error("Job on an unknown id succeeded")
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if !strings.Contains(metrics, "artery_server_jobs_completed_total 1") {
		t.Errorf("metrics missing completed counter:\n%s", metrics)
	}
}

// TestIsGone is the client's half of the typed 410 contract, against a
// real server that retains one job: the id of an evicted job is Gone,
// while an id the server never issued is a plain 404.
func TestIsGone(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 1, MaxRetainedJobs: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// A full job table answers 429 until the finished job retires, so
	// the second submission retries on a short backoff.
	c := MustNew(ts.URL, WithRetries(200), WithBackoff(time.Millisecond, 10*time.Millisecond))
	off := false
	req := Request{Workload: "qrw", Param: 3, Shots: 3, Seed: 4, Options: &RequestOptions{StateSim: &off}}
	first, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, first.ID, time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatalf("second Submit: %v", err)
	}

	_, err = c.Job(ctx, first.ID)
	if !IsGone(err) {
		t.Fatalf("Job(%s) after eviction: %v, want IsGone", first.ID, err)
	}
	_, err = c.Job(ctx, "job-999")
	if he, ok := err.(*httpError); !ok || he.status != http.StatusNotFound {
		t.Fatalf("Job(job-999): %v, want a 404", err)
	}
	if IsGone(err) {
		t.Fatalf("IsGone(%v) for an id the server never issued", err)
	}
}
