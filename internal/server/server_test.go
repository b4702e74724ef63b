package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"artery/api"
)

// postJob submits a request body and returns the response.
func postJob(t *testing.T, base string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

// decodeStatus decodes a JobStatus response body and closes it.
func decodeStatus(t *testing.T, resp *http.Response) api.JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var js api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return js
}

// getStatus fetches GET /v1/jobs/{id}.
func getStatus(t *testing.T, base, id string) (api.JobStatus, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.JobStatus{}, resp.StatusCode
	}
	var js api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return js, resp.StatusCode
}

// waitState polls a job until it reaches want (or any terminal state, if
// want is empty) and returns the final snapshot.
func waitTerminal(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		js, code := getStatus(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if api.Terminal(js.State) {
			return js
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return api.JobStatus{}
}

// TestSubmitRejectsWhenQueueFull drives admission control to capacity: one
// job running (blocked in a test-seam executor), one queued, and the next
// submission must be turned away with 429 + Retry-After instead of
// buffered.
func TestSubmitRejectsWhenQueueFull(t *testing.T) {
	s := New(Config{QueueDepth: 1, MaxConcurrentJobs: 1, MaxShots: 1000})
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) {
		started <- struct{}{}
		select {
		case <-unblock:
			j.complete(&api.Result{Workload: "QRW-3", Shots: j.Req.Shots}, s.now())
		case <-ctx.Done():
			j.cancel("canceled by drain", s.now())
		}
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		close(unblock)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	req := `{"workload":"qrw","param":3,"shots":10}`

	// Job A: admitted, picked up by the (single) worker, now blocked.
	respA := postJob(t, ts.URL, req)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d, want 202", respA.StatusCode)
	}
	a := decodeStatus(t, respA)
	if a.State != api.StateQueued || a.ID == "" {
		t.Fatalf("job A snapshot: %+v", a)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up job A")
	}

	// Job B: fills the depth-1 queue.
	respB := postJob(t, ts.URL, req)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d, want 202", respB.StatusCode)
	}
	decodeStatus(t, respB)

	// Job C: over capacity — 429, Retry-After header, echoed in the body.
	respC := postJob(t, ts.URL, req)
	defer respC.Body.Close()
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: status %d, want 429", respC.StatusCode)
	}
	ra := respC.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", ra)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(respC.Body).Decode(&eb); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if eb.RetryAfterSec != secs || eb.Error == "" {
		t.Errorf("429 body %+v does not echo Retry-After %d", eb, secs)
	}

	// The rejection is visible on /metrics.
	var buf bytes.Buffer
	if err := s.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "artery_server_jobs_rejected_total 1") {
		t.Errorf("metrics missing rejected counter:\n%s", buf.String())
	}
}

// TestJobTableFull covers the retained-job bound: with the table full of
// live jobs a submission is rejected, and once jobs retire the oldest are
// evicted to admit new ones.
func TestJobTableFull(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, MaxRetainedJobs: 1})
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) {
		started <- struct{}{}
		select {
		case <-unblock:
		case <-ctx.Done():
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

	req := `{"workload":"qrw","param":3,"shots":5}`
	respA := postJob(t, ts.URL, req)
	a := decodeStatus(t, respA)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d", respA.StatusCode)
	}
	<-started

	// Table holds MaxRetainedJobs=1 live job: the next submit is rejected.
	respB := postJob(t, ts.URL, req)
	respB.Body.Close()
	if respB.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job B with full table: status %d, want 429", respB.StatusCode)
	}

	// Let A finish and retire; the next submit evicts it.
	close(unblock)
	waitTerminal(t, ts.URL, a.ID)
	deadline := time.Now().Add(5 * time.Second)
	var respC *http.Response
	for {
		respC = postJob(t, ts.URL, req)
		if respC.StatusCode == http.StatusAccepted || time.Now().After(deadline) {
			break
		}
		respC.Body.Close() // A not yet retired; try again
		time.Sleep(10 * time.Millisecond)
	}
	if respC.StatusCode != http.StatusAccepted {
		t.Fatalf("job C after retire: status %d, want 202", respC.StatusCode)
	}
	decodeStatus(t, respC)
	// An evicted id answers 410 Gone with the typed code — it existed, it
	// is not coming back — while a never-issued id stays a plain 404.
	if _, code := getStatus(t, ts.URL, a.ID); code != http.StatusGone {
		t.Errorf("evicted job A: status %d, want 410", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Code != api.CodeEvicted {
		t.Errorf("evicted job A: error code %q, want %q", body.Code, api.CodeEvicted)
	}
	if _, code := getStatus(t, ts.URL, "job-99999"); code != http.StatusNotFound {
		t.Errorf("never-issued id: status %d, want 404", code)
	}
}

// TestWorkerRecoversExecutorPanic: a panicking executor fails its job
// instead of killing the dispatcher worker (and with it the process) —
// the server keeps running jobs submitted afterwards.
func TestWorkerRecoversExecutorPanic(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, MaxShots: 1000})
	s.runJob = func(ctx context.Context, j *Job) {
		if j.Req.Seed == 666 {
			panic("executor exploded")
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

	bad := decodeStatus(t, postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":5,"seed":666}`))
	js := waitTerminal(t, ts.URL, bad.ID)
	if js.State != api.StateFailed || !strings.Contains(js.Error, "panicked") {
		t.Fatalf("panicked job ended %q (error %q), want failed with a panic message", js.State, js.Error)
	}

	good := decodeStatus(t, postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":5}`))
	if js := waitTerminal(t, ts.URL, good.ID); js.State != api.StateDone {
		t.Fatalf("job after the panic ended %q, want done — did the worker die?", js.State)
	}
}

// TestSubmitValidation exercises the 400 paths: malformed JSON, unknown
// fields, unknown workload/controller/mode, out-of-range shots and
// options.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{MaxShots: 100})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	cases := []struct {
		name, body string
	}{
		{"malformed", `{"workload":`},
		{"unknown field", `{"workload":"qrw","param":3,"shots":5,"bogus":1}`},
		{"unknown workload", `{"workload":"nope","param":3,"shots":5}`},
		{"bad param", `{"workload":"qrw","param":0,"shots":5}`},
		{"unknown controller", `{"workload":"qrw","param":3,"shots":5,"controller":"nope"}`},
		{"zero shots", `{"workload":"qrw","param":3,"shots":0}`},
		{"too many shots", `{"workload":"qrw","param":3,"shots":101}`},
		{"range over cap", `{"workload":"qrw","param":3,"shots":50,"shot_offset":60}`},
		{"offset overflows the range sum", `{"workload":"qrw","param":3,"shots":5,"shot_offset":9223372036854775807}`},
		{"bad mode", `{"workload":"qrw","param":3,"shots":5,"options":{"mode":"nope"}}`},
		{"bad theta", `{"workload":"qrw","param":3,"shots":5,"options":{"theta":1.5}}`},
		{"bad history depth", `{"workload":"qrw","param":3,"shots":5,"options":{"history_depth":99}}`},
	}
	for _, c := range cases {
		resp := postJob(t, ts.URL, c.body)
		var eb api.ErrorBody
		err := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if err != nil || eb.Error == "" {
			t.Errorf("%s: error body %+v (decode err %v)", c.name, eb, err)
		}
	}
}

// TestUnknownJob404 checks status and stream of a nonexistent job.
func TestUnknownJob404(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// streamedLine is the union of the two NDJSON shapes, for test decoding.
type streamedLine struct {
	api.ShotEvent
	Done   bool        `json:"done"`
	State  string      `json:"state"`
	Result *api.Result `json:"result"`
}

// readStream consumes a job's NDJSON stream to its terminal line.
func readStream(t *testing.T, base, id string) (events []api.ShotEvent, end streamedLine) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l streamedLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if l.Done {
			return events, l
		}
		events = append(events, l.ShotEvent)
	}
	t.Fatalf("stream ended without a done line (%v)", sc.Err())
	return nil, streamedLine{}
}

// TestStreamMatchesFinalResult runs a real job end to end over HTTP and
// checks the NDJSON stream is consistent with the final result: one event
// per shot, in shot order, terminal line carrying the same result document
// the status endpoint reports.
func TestStreamMatchesFinalResult(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	const shots = 30
	resp := postJob(t, ts.URL, fmt.Sprintf(
		`{"workload":"qrw","param":3,"shots":%d,"seed":11,"options":{"state_sim":false}}`, shots))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	js := decodeStatus(t, resp)

	events, end := readStream(t, ts.URL, js.ID)
	if end.State != api.StateDone || end.Result == nil {
		t.Fatalf("stream end %+v, want done with result", end)
	}
	if len(events) != shots || end.Result.Shots != shots {
		t.Fatalf("streamed %d events, result %d shots, want %d", len(events), end.Result.Shots, shots)
	}
	for i, ev := range events {
		if ev.Shot != i {
			t.Fatalf("event %d has shot index %d: stream out of order", i, ev.Shot)
		}
		if ev.Fidelity != nil {
			t.Errorf("event %d: fidelity %v, want null with state_sim off", i, *ev.Fidelity)
		}
	}

	final := waitTerminal(t, ts.URL, js.ID)
	if final.State != api.StateDone || final.Result == nil || final.ShotsStreamed != shots {
		t.Fatalf("final status %+v", final)
	}
	streamJSON, _ := json.Marshal(end.Result)
	statusJSON, _ := json.Marshal(final.Result)
	if !bytes.Equal(streamJSON, statusJSON) {
		t.Errorf("stream result %s\n!= status result %s", streamJSON, statusJSON)
	}

	// A late subscriber replays the identical committed history.
	replayed, end2 := readStream(t, ts.URL, js.ID)
	a, _ := json.Marshal(events)
	b, _ := json.Marshal(replayed)
	if !bytes.Equal(a, b) {
		t.Error("replayed event history differs from the live stream")
	}
	if end2.State != api.StateDone {
		t.Errorf("replayed end state %q", end2.State)
	}
}

// TestGracefulShutdownDrain starts a long job plus a queued one, then
// shuts down: admission must stop (503), the running job must finish with
// a deterministic canceled prefix, and the queued job must be canceled
// without running.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Long enough that the drain always lands mid-run: ~500k latency-only
	// shots take seconds, and cancellation is polled every 32 shots.
	respA := postJob(t, ts.URL, `{"workload":"qrw","param":5,"shots":500000,"seed":3,"options":{"state_sim":false}}`)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d", respA.StatusCode)
	}
	a := decodeStatus(t, respA)

	// Wait until A is demonstrably running (events committed).
	deadline := time.Now().Add(20 * time.Second)
	for {
		js, _ := getStatus(t, ts.URL, a.ID)
		if js.State == api.StateRunning && js.ShotsStreamed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A never started streaming: %+v", js)
		}
		time.Sleep(5 * time.Millisecond)
	}

	respB := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":100}`)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d", respB.StatusCode)
	}
	b := decodeStatus(t, respB)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v, want nil (idempotent)", err)
	}

	// Admission is closed: POST → 503, /readyz → 503, /healthz still 200.
	respC := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":5}`)
	respC.Body.Close()
	if respC.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after shutdown: status %d, want 503", respC.StatusCode)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after shutdown: status %d, want 503", ready.StatusCode)
	}
	healthy, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthy.Body.Close()
	if healthy.StatusCode != http.StatusOK {
		t.Errorf("/healthz after shutdown: status %d, want 200", healthy.StatusCode)
	}

	// Job A: done, with a deterministic canceled prefix.
	finalA, _ := getStatus(t, ts.URL, a.ID)
	if finalA.State != api.StateDone || finalA.Result == nil {
		t.Fatalf("drained job A: %+v", finalA)
	}
	if !finalA.Result.Canceled {
		t.Error("job A result not marked canceled")
	}
	if finalA.Result.Shots <= 0 || finalA.Result.Shots >= 500000 {
		t.Errorf("job A merged %d shots, want a proper prefix of 500000", finalA.Result.Shots)
	}
	if finalA.ShotsStreamed != finalA.Result.Shots {
		t.Errorf("job A streamed %d events but result covers %d shots", finalA.ShotsStreamed, finalA.Result.Shots)
	}

	// Job B: canceled without running.
	finalB, _ := getStatus(t, ts.URL, b.ID)
	if finalB.State != api.StateCanceled || finalB.ShotsStreamed != 0 {
		t.Fatalf("queued job B after drain: %+v", finalB)
	}

	// The stream of a terminal job still replays and terminates.
	events, end := readStream(t, ts.URL, a.ID)
	if len(events) != finalA.Result.Shots || end.State != api.StateDone {
		t.Errorf("post-drain stream: %d events, end %+v", len(events), end)
	}
}

// TestMetricsEndpoint checks /metrics serves the Prometheus exposition
// with the server's instruments.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"artery_server_jobs_submitted_total",
		"artery_server_jobs_rejected_total",
		"artery_server_queue_depth",
		"artery_server_job_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestFailedJobSurfacesError covers the failed state: an executor error is
// reported on the status document and the stream's terminal line.
func TestFailedJobSurfacesError(t *testing.T) {
	s := New(Config{MaxConcurrentJobs: 1})
	s.runJob = func(ctx context.Context, j *Job) {
		j.fail("engine exploded", s.now())
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	resp := postJob(t, ts.URL, `{"workload":"qrw","param":3,"shots":5}`)
	js := decodeStatus(t, resp)
	final := waitTerminal(t, ts.URL, js.ID)
	if final.State != api.StateFailed || final.Error != "engine exploded" {
		t.Fatalf("failed job status: %+v", final)
	}
	_, end := readStream(t, ts.URL, js.ID)
	if end.State != api.StateFailed {
		t.Errorf("stream end state %q, want failed", end.State)
	}
}
