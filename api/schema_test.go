package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"artery"
	"artery/internal/core"
	"artery/internal/trace"
)

// TestRequestRoundTrip locks the wire tags, including the schema-v3
// range fields, and checks the zero-valued optionals stay off the wire.
func TestRequestRoundTrip(t *testing.T) {
	req := Request{
		Workload: "qrw", Param: 3, Controller: "ARTERY",
		Shots: 10, ShotOffset: 40, StreamStages: true, Seed: 7,
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, want := range []string{`"shot_offset":40`, `"stream_stages":true`, `"workload":"qrw"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoded request %s missing %s", b, want)
		}
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != req {
		t.Errorf("round trip %+v != %+v", back, req)
	}
	// The range fields are omitempty: a v2-style request body stays v2.
	b, _ = json.Marshal(Request{Workload: "qrw", Param: 3, Shots: 10})
	if strings.Contains(string(b), "shot_offset") || strings.Contains(string(b), "stream_stages") {
		t.Errorf("zero-valued v3 fields leaked into %s", b)
	}
}

// TestOldServersRejectRangeFields documents the compatibility story: a
// pre-v3 server decodes requests with DisallowUnknownFields, so the new
// fields produce a clear 400-grade error instead of silent truncation.
func TestOldServersRejectRangeFields(t *testing.T) {
	// The v2 request shape, as an old server's decoder saw it.
	type requestV2 struct {
		Workload   string          `json:"workload"`
		Param      int             `json:"param"`
		Controller string          `json:"controller,omitempty"`
		Shots      int             `json:"shots"`
		Seed       uint64          `json:"seed,omitempty"`
		Options    *RequestOptions `json:"options,omitempty"`
	}
	b, _ := json.Marshal(Request{Workload: "qrw", Param: 3, Shots: 10, ShotOffset: 5})
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var old requestV2
	err := dec.Decode(&old)
	if err == nil || !strings.Contains(err.Error(), "shot_offset") {
		t.Fatalf("old decoder accepted a v3 request (err=%v); the schema bump would be silent", err)
	}
}

// TestEventFromStages checks the stage deltas ride along only when
// requested, preserving order.
func TestEventFromStages(t *testing.T) {
	u := artery.ShotUpdate{
		Shot: 4, LatencyNs: 1800, Fidelity: math.NaN(), Sites: 2, Commits: 1, Correct: 1,
		Stages: []core.StageDelta{{Stage: trace.StagePayload, Ns: 100}, {Stage: trace.StageDecision, Ns: 700}},
	}
	ev := EventFrom(u, true)
	if ev.Fidelity != nil {
		t.Errorf("NaN fidelity encoded as %v, want nil", *ev.Fidelity)
	}
	if len(ev.Stages) != 2 || ev.Stages[0] != (StageDelta{Stage: "payload", Ns: 100}) || ev.Stages[1] != (StageDelta{Stage: "decision", Ns: 700}) {
		t.Errorf("stage deltas %+v lost order or values", ev.Stages)
	}
	if got := EventFrom(u, false); got.Stages != nil {
		t.Errorf("withStages=false still carries %+v", got.Stages)
	}
	b, _ := json.Marshal(EventFrom(u, false))
	if strings.Contains(string(b), "stages") {
		t.Errorf("stage-free event %s leaks a stages key", b)
	}
}

// TestValidateRequestBounds exercises the admission checks, range bounds
// included.
func TestValidateRequestBounds(t *testing.T) {
	base := Request{Workload: "qrw", Param: 3, Shots: 10}
	if _, err := ValidateRequest(base, 100); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(r *Request)
	}{
		{"unknown workload", func(r *Request) { r.Workload = "bogus" }},
		{"unknown controller", func(r *Request) { r.Controller = "SkyNet" }},
		{"zero shots", func(r *Request) { r.Shots = 0 }},
		{"over cap", func(r *Request) { r.Shots = 101 }},
		{"negative offset", func(r *Request) { r.ShotOffset = -1 }},
		{"range over cap", func(r *Request) { r.ShotOffset = 95 }},
		{"offset overflows the sum", func(r *Request) { r.ShotOffset = math.MaxInt }},
		{"offset wraps the sum to the cap", func(r *Request) { r.ShotOffset = math.MaxInt - 5 }},
		// Explicit backends a run rejects before its first shot.
		{"dqt on the stabilizer backend", backend("dqt", 2, "stabilizer", 0)},
		{"rusqnn on the stabilizer backend", backend("rusqnn", 2, "stabilizer", 0)},
		{"msi on the stabilizer backend", backend("msi", 2, "stabilizer", 0)},
		{"quasi-static detuning on the stabilizer backend", backend("surface", 3, "stabilizer", 1e-4)},
		{"surface 15 on the state backend", backend("surface", 15, "state", 0)},
	}
	for _, tc := range cases {
		req := base
		tc.mut(&req)
		if _, err := ValidateRequest(req, 100); err == nil {
			t.Errorf("%s: request validated", tc.name)
		}
	}
	// A range that fits the cap is fine.
	req := base
	req.ShotOffset = 90
	if _, err := ValidateRequest(req, 100); err != nil {
		t.Errorf("in-cap range rejected: %v", err)
	}
	// Without state simulation no backend runs, so any valid name passes.
	req = base
	backend("dqt", 2, "stabilizer", 0)(&req)
	req.Options.StateSim = new(bool)
	if _, err := ValidateRequest(req, 100); err != nil {
		t.Errorf("dqt with the stabilizer backend and state_sim false rejected: %v", err)
	}
}

// TestValidateRequestCapsWorkloadSize checks that admission rejects an
// oversized workload parameter with the registry's cap error before
// building the workload: at these sizes the build alone would allocate
// gigabytes inside the submit handler.
func TestValidateRequestCapsWorkloadSize(t *testing.T) {
	for _, req := range []Request{
		{Workload: "qec", Param: 100000, Shots: 1},
		{Workload: "qrw", Param: 1 << 30, Shots: 1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ValidateRequest(req, 1_000_000)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds the supported maximum") {
			t.Fatalf("%s %d: err = %v, want the size cap error", req.Workload, req.Param, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s %d: rejecting it allocated %d B, want no workload built", req.Workload, req.Param, n)
		}
	}
}

// FuzzValidateRequest feeds arbitrary bytes to admission as the submit
// handler sees them (a 1 MiB body, unknown fields rejected) under a
// 1,000,000-shot cap: nothing may panic, and an accepted request must
// survive the journal's round trip, because recovery re-validates every
// journaled request. Seeded with the request bodies of the tests, the
// README and the scripts, plus one accepted body that sets every field.
func FuzzValidateRequest(f *testing.F) {
	for _, body := range []string{
		`{"workload":"qrw","param":3,"shots":20,"seed":1}`,
		`{"workload":"qrw","param":5,"controller":"ARTERY","shots":6000,"seed":42,"stream_stages":true}`,
		`{"workload":"qrw","param":5,"shots":100000,"seed":42}`,
		`{"workload":"qrw","param":5,"shots":500000,"seed":3,"options":{"state_sim":false}}`,
		`{"workload":"qrw","param":3,"shots":40,"seed":9,"options":{"window_ns":40,"history_depth":5}}`,
		`{"workload":"qrw","param":3,"shots":50,"shot_offset":60}`,
		`{"workload":"qrw","param":3,"shots":5,"shot_offset":9223372036854775807}`,
		`{"workload":"qrw","param":3,"shots":10,"deadline_ms":30}`,
		`{"workload":"qrw","param":3,"shots":10,"deadline_ms":-5}`,
		`{"workload":"qrw","param":3,"shots":5,"controller":"nope"}`,
		`{"workload":"qrw","param":3,"shots":5,"options":{"history_depth":99}}`,
		`{"workload":"qrw","param":3,"shots":5,"options":{"mode":"nope"}}`,
		`{"workload":"qrw","param":3,"shots":5,"options":{"theta":1.5}}`,
		`{"workload":"qrw","param":3,"shots":5,"bogus":1}`,
		`{"workload":"qrw","param":0,"shots":5}`,
		`{"workload":"qrw","param":1073741824,"shots":1}`,
		`{"workload":"nope","param":3,"shots":5}`,
		`{"workload":"qec","param":1,"shots":40,"seed":5,"options":{"state_sim":false}}`,
		`{"workload":"qec","param":100000,"shots":1}`,
		`{"workload":"dqt","param":2,"shots":40,"seed":21,"options":{"state_sim":false,"theta":0.93,"history_depth":6}}`,
		`{"workload":"dqt","param":2,"shots":8,"options":{"backend":"stabilizer"}}`,
		`{"workload":"surface","param":3,"shots":30,"seed":9,"options":{"backend":"stabilizer"}}`,
		`{"workload":"surface","param":5,"controller":"QubiC","shots":2,"shot_offset":3,"stream_stages":true,"deadline_ms":1000,"seed":7,"options":{"window_ns":40,"history_depth":5,"theta":0.93,"mode":"history","state_sim":true,"dynamical_decoupling":true,"quasi_static_sigma":0,"backend":"stabilizer"}}`,
	} {
		f.Add([]byte(body))
	}
	const maxShots = 1_000_000
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<20))
		dec.DisallowUnknownFields()
		var req Request
		if dec.Decode(&req) != nil {
			return
		}
		wl, err := ValidateRequest(req, maxShots)
		if err != nil {
			return
		}
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("encode accepted request %+v: %v", req, err)
		}
		var back Request
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("decode journaled request %s: %v", line, err)
		}
		wl2, err := ValidateRequest(back, maxShots)
		if err != nil {
			t.Fatalf("journaled request %s no longer validates: %v", line, err)
		}
		if wl2.Name != wl.Name || wl2.NumFeedback() != wl.NumFeedback() {
			t.Fatalf("journaled request %s builds %s with %d feedback sites, admission built %s with %d",
				line, wl2.Name, wl2.NumFeedback(), wl.Name, wl.NumFeedback())
		}
	})
}

// backend returns a request mutation that selects workload name(param)
// on the named backend, with quasi-static detuning sigma.
func backend(name string, param int, backend string, sigma float64) func(r *Request) {
	return func(r *Request) {
		r.Workload, r.Param = name, param
		r.Options = &RequestOptions{Backend: backend, QuasiStaticSigma: sigma}
	}
}
