package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artery/api"
)

// TestDeadlineExpiresBeforeStart: a job whose deadline_ms budget is
// spent while it sits in the queue fails immediately when the worker
// picks it up — no shots run — and the expiry is counted.
func TestDeadlineExpiresBeforeStart(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, MaxShots: 1000})
	unblock := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) {
		if j.Req.DeadlineMs == 0 {
			<-unblock // the blocker job holds the only worker
		}
		j.complete(&api.Result{Workload: "QRW-3", Shots: j.Req.Shots}, s.now())
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	blocker := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":10}`)
	if blocker.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", blocker.StatusCode)
	}
	decodeStatus(t, blocker)

	resp := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":10,"deadline_ms":30}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline job submit = %d", resp.StatusCode)
	}
	js := decodeStatus(t, resp)

	time.Sleep(60 * time.Millisecond) // let the queued deadline lapse
	close(unblock)

	final := waitTerminal(t, ts.URL, js.ID)
	if final.State != api.StateFailed {
		t.Fatalf("job ended %q (%s), want failed", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "expired before the job started") {
		t.Fatalf("unexpected failure message: %q", final.Error)
	}
	var prom strings.Builder
	s.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_server_deadline_expired_total 1") {
		t.Errorf("deadline expiry not counted:\n%s", prom.String())
	}
}

// TestDeadlineCancelsMidRun: a running job's context carries the
// deadline; when it fires the job stops with its deterministic canceled
// prefix (here modeled by the test executor) and the expiry is counted.
func TestDeadlineCancelsMidRun(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, MaxShots: 1000})
	s.runJob = func(ctx context.Context, j *Job) {
		select {
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded {
				j.cancel("deadline exceeded mid-run", s.now())
				return
			}
			j.cancel("drained", s.now())
		case <-time.After(10 * time.Second):
			j.complete(&api.Result{Workload: "QRW-3", Shots: j.Req.Shots}, s.now())
		}
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	resp := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":10,"deadline_ms":50}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	js := decodeStatus(t, resp)
	final := waitTerminal(t, ts.URL, js.ID)
	if final.State != api.StateCanceled {
		t.Fatalf("job ended %q (%s), want canceled by its deadline", final.State, final.Error)
	}
	var prom strings.Builder
	s.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_server_deadline_expired_total 1") {
		t.Errorf("deadline expiry not counted:\n%s", prom.String())
	}
}

// TestSubmitRejectsNegativeDeadline: schema validation catches a
// negative deadline at admission.
func TestSubmitRejectsNegativeDeadline(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	resp := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":10,"deadline_ms":-5}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms = %d, want 400", resp.StatusCode)
	}
}

// TestRetryAfterEstimate: the 429 hint scales with queue depth and the
// observed mean job time, clamped to [1, 60].
func TestRetryAfterEstimate(t *testing.T) {
	s := New(Config{QueueDepth: 64, MaxConcurrentJobs: 2})
	// No completions yet: mean defaults to 1s, empty queue → ceil(1/2)=1.
	if got := s.retryAfterEstimate(); got != 1 {
		t.Fatalf("cold estimate = %d, want 1", got)
	}
	// Mean 4s with 5 queued → ceil(6*4/2) = 12.
	s.m.jobSeconds.Observe(4.0)
	for i := 0; i < 5; i++ {
		s.queue <- &Job{}
	}
	if got := s.retryAfterEstimate(); got != 12 {
		t.Fatalf("estimate with backlog = %d, want 12", got)
	}
	// A pathological mean clamps at 60.
	s.m.jobSeconds.Observe(10_000)
	if got := s.retryAfterEstimate(); got != 60 {
		t.Fatalf("clamped estimate = %d, want 60", got)
	}
}

// TestReadyCheckAndAdmissionGate: the coordinator's one readiness seam —
// while ReadyCheck errors, /readyz turns 503 and submissions are shed
// with 503 plus the shed counter.
func TestReadyCheckAndAdmissionGate(t *testing.T) {
	gateErr := error(nil)
	s := New(Config{
		QueueDepth: 4, MaxConcurrentJobs: 1,
		ReadyCheck: func() error { return gateErr },
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with nil gate error = %d, want 200", resp.StatusCode)
	}

	gateErr = context.DeadlineExceeded // any non-nil error
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with gate error = %d, want 503", resp.StatusCode)
	}

	sub := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":10}`)
	sub.Body.Close()
	if sub.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated submit = %d, want 503", sub.StatusCode)
	}
	var prom strings.Builder
	s.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_server_jobs_shed_total 1") {
		t.Errorf("shed not counted:\n%s", prom.String())
	}
}
