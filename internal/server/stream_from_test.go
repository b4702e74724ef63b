package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artery/api"
)

// TestStreamFromResumesMidLog exercises the ?from= resume parameter: a
// subscriber that already consumed n events reconnects with from=n and
// receives exactly the tail plus the terminal line, and the tail's stage
// deltas appear when the job asked for stream_stages.
func TestStreamFromResumesMidLog(t *testing.T) {
	s := New(Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(t.Context())

	const shots = 12
	body := `{"workload":"qrw","param":3,"shots":12,"seed":5,"stream_stages":true,"options":{"state_sim":false}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var js api.JobStatus
	json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := http.Get(ts.URL + "/v1/jobs/" + js.ID)
		var cur api.JobStatus
		json.NewDecoder(st.Body).Decode(&cur)
		st.Body.Close()
		if api.Terminal(cur.State) {
			if cur.State != api.StateDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}

	const from = 7
	resp, err = http.Get(ts.URL + "/v1/jobs/" + js.ID + "/stream?from=" + "7")
	if err != nil {
		t.Fatalf("stream?from: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	events, sawEnd := 0, false
	for sc.Scan() {
		var line struct {
			api.ShotEvent
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if line.Done {
			sawEnd = true
			break
		}
		if want := from + events; line.Shot != want {
			t.Fatalf("resumed event %d carries shot %d, want %d", events, line.Shot, want)
		}
		if len(line.Stages) == 0 {
			t.Fatalf("resumed event for shot %d has no stage deltas despite stream_stages", line.Shot)
		}
		events++
	}
	if !sawEnd || events != shots-from {
		t.Fatalf("resume delivered %d events (end=%v), want %d", events, sawEnd, shots-from)
	}

	// Invalid from fails with 400, not a hung stream.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + js.ID + "/stream?from=-3")
	if err != nil {
		t.Fatalf("stream?from=-3: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-3 returned %d, want 400", resp.StatusCode)
	}
}
