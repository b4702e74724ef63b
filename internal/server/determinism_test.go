package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"artery"
	"artery/api"
)

// runJobToBytes submits req to a fresh server with the given worker
// budget, waits for completion and returns the result document and the
// streamed event history as canonical JSON.
func runJobToBytes(t *testing.T, cfg Config, req string) (result, events []byte) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	resp := postJob(t, ts.URL, req)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	js := decodeStatus(t, resp)
	evs, end := readStream(t, ts.URL, js.ID)
	if end.State != api.StateDone || end.Result == nil {
		t.Fatalf("job ended %+v", end)
	}
	result, _ = json.Marshal(end.Result)
	events, _ = json.Marshal(evs)
	return result, events
}

// TestResultDeterministicAcrossWorkerBudgets is the service-level
// co-tenancy determinism contract: the same request (same seed) must
// produce byte-identical result and event-stream JSON whatever worker
// budget the server runs — a job's numbers never depend on how much
// parallelism it was granted.
func TestResultDeterministicAcrossWorkerBudgets(t *testing.T) {
	req := `{"workload":"qrw","param":4,"shots":50,"seed":7,"options":{"state_sim":false}}`
	res1, ev1 := runJobToBytes(t, Config{MaxConcurrentJobs: 1, WorkerBudget: 1}, req)
	res4, ev4 := runJobToBytes(t, Config{MaxConcurrentJobs: 1, WorkerBudget: 4}, req)
	if !bytes.Equal(res1, res4) {
		t.Errorf("result drifts with worker budget:\nbudget 1: %s\nbudget 4: %s", res1, res4)
	}
	if !bytes.Equal(ev1, ev4) {
		t.Errorf("event stream drifts with worker budget")
	}
}

// TestResubmitReproducesResult submits the same request twice to one
// server — with another job interleaved between them — and requires
// byte-identical result JSON: co-tenant traffic cannot perturb a job.
func TestResubmitReproducesResult(t *testing.T) {
	s := New(Config{QueueDepth: 8, MaxConcurrentJobs: 2, WorkerBudget: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	req := `{"workload":"dqt","param":2,"shots":40,"seed":21,"options":{"state_sim":false,"theta":0.93,"history_depth":6}}`
	other := `{"workload":"qec","param":1,"shots":40,"seed":5,"options":{"state_sim":false}}`

	run := func(body string) []byte {
		resp := postJob(t, ts.URL, body)
		if resp.StatusCode != 202 {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		js := decodeStatus(t, resp)
		final := waitTerminal(t, ts.URL, js.ID)
		if final.State != api.StateDone || final.Result == nil {
			t.Fatalf("job %s ended %+v", js.ID, final)
		}
		b, _ := json.Marshal(final.Result)
		return b
	}

	first := run(req)
	run(other) // co-tenant noise between the twin submissions
	second := run(req)
	if !bytes.Equal(first, second) {
		t.Errorf("resubmission drifted:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// TestStateSimResultHasFidelity checks the default (state-sim on) path end
// to end: fidelity is a number on the wire, not null, and options round
// out the api.LibraryOptions coverage (window, DD, sigma, mode).
func TestStateSimResultHasFidelity(t *testing.T) {
	req := fmt.Sprintf(`{"workload":"reset","param":2,"shots":20,"seed":13,` +
		`"options":{"mode":"history","window_ns":200,"dynamical_decoupling":true,"quasi_static_sigma":6000}}`)
	res, evs := runJobToBytes(t, Config{MaxConcurrentJobs: 1}, req)
	var r api.Result
	if err := json.Unmarshal(res, &r); err != nil {
		t.Fatal(err)
	}
	if r.Fidelity == nil || *r.Fidelity <= 0 || *r.Fidelity > 1 {
		t.Errorf("fidelity %v, want a number in (0, 1]", r.Fidelity)
	}
	var events []api.ShotEvent
	if err := json.Unmarshal(evs, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("streamed %d events, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Fidelity == nil {
			t.Fatalf("event %d: null fidelity with state sim on", i)
		}
	}
}

// TestSharedCalibrationSameBytes runs one request twice at once and then
// three times in sequence on one server. The five jobs share one
// calibration, and every job's result and event bytes equal a fresh
// library run of the request. /metrics counts one calibration and four
// hits.
func TestSharedCalibrationSameBytes(t *testing.T) {
	const req = `{"workload":"qrw","param":3,"shots":40,"seed":9,"options":{"window_ns":40,"history_depth":5}}`
	sys, err := artery.New(artery.WithSeed(9), artery.WithWindowNs(40), artery.WithHistoryDepth(5))
	if err != nil {
		t.Fatal(err)
	}
	var libEvents []api.ShotEvent
	rep, err := sys.RunRangeStream(context.Background(), "ARTERY", artery.QRW(3), 0, 40, func(u artery.ShotUpdate) {
		libEvents = append(libEvents, api.EventFrom(u, false))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantResult, _ := json.Marshal(api.ResultFrom(rep))
	wantEvents, _ := json.Marshal(libEvents)

	s := New(Config{MaxConcurrentJobs: 2, WorkerBudget: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	check := func(id string) {
		evs, end := readStream(t, ts.URL, id)
		if end.State != api.StateDone || end.Result == nil {
			t.Fatalf("job %s ended %+v", id, end)
		}
		result, _ := json.Marshal(end.Result)
		events, _ := json.Marshal(evs)
		if !bytes.Equal(result, wantResult) {
			t.Errorf("job %s result differs from the library run:\nserved:  %s\nlibrary: %s", id, result, wantResult)
		}
		if !bytes.Equal(events, wantEvents) {
			t.Errorf("job %s events differ from the library run", id)
		}
	}
	submit := func() string {
		resp := postJob(t, ts.URL, req)
		if resp.StatusCode != 202 {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return decodeStatus(t, resp).ID
	}

	first, second := submit(), submit()
	check(first)
	check(second)
	for i := 0; i < 3; i++ {
		check(submit())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"artery_server_calibrations_total 1\n",
		"artery_server_calibration_hits_total 4\n",
		// One k=5 entry: 16 time buckets × ((2^6 − 2) counters of 16 B
		// + 7 slice headers of 24 B) + 1 KiB.
		"artery_server_calibration_cache_bytes 19584\n",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
