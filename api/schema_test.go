package api

import (
	"encoding/json"
	"math"
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

// backend returns a request mutation that selects workload name(param)
// on the named backend, with quasi-static detuning sigma.
func backend(name string, param int, backend string, sigma float64) func(r *Request) {
	return func(r *Request) {
		r.Workload, r.Param = name, param
		r.Options = &RequestOptions{Backend: backend, QuasiStaticSigma: sigma}
	}
}
