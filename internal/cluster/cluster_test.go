package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"artery/api"
	"artery/client"
	"artery/internal/server"
)

// TestSplitRange locks the shard-splitting arithmetic: contiguous,
// gap-free, near-equal, never empty.
func TestSplitRange(t *testing.T) {
	cases := []struct {
		offset, shots, n int
		want             []shardRange
	}{
		{0, 10, 2, []shardRange{{0, 5}, {5, 10}}},
		{0, 10, 3, []shardRange{{0, 4}, {4, 7}, {7, 10}}},
		{5, 4, 8, []shardRange{{5, 6}, {6, 7}, {7, 8}, {8, 9}}},
		{0, 7, 1, []shardRange{{0, 7}}},
		{100, 3, 0, []shardRange{{100, 103}}},
	}
	for _, tc := range cases {
		got := splitRange(tc.offset, tc.shots, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("splitRange(%d,%d,%d) = %v, want %v", tc.offset, tc.shots, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("splitRange(%d,%d,%d) = %v, want %v", tc.offset, tc.shots, tc.n, got, tc.want)
			}
		}
	}
}

// node is one in-process arteryd backend.
type node struct {
	srv *server.Server
	ts  *httptest.Server
}

func startNode(t *testing.T, workers int, wrap func(http.Handler) http.Handler) *node {
	t.Helper()
	s := server.New(server.Config{QueueDepth: 16, MaxConcurrentJobs: 2, WorkerBudget: workers})
	s.Start()
	h := http.Handler(s.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return &node{srv: s, ts: ts}
}

// startCoordinator fronts the given backends.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, ts.URL
}

// runJob submits req at base, streams it to the end, and returns the
// result JSON plus each event's JSON, for byte comparison.
func runJob(t *testing.T, base string, req api.Request) (string, []string) {
	t.Helper()
	cl := client.MustNew(base, client.WithRetries(10))
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	js, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit to %s: %v", base, err)
	}
	st, err := cl.Stream(ctx, js.ID)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer st.Close()
	var events []string
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream next after %d events: %v", len(events), err)
		}
		b, _ := json.Marshal(ev)
		events = append(events, string(b))
	}
	end := st.End()
	if end == nil || end.State != api.StateDone || end.Result == nil {
		t.Fatalf("job ended %+v", end)
	}
	b, _ := json.Marshal(end.Result)
	return string(b), events
}

func compareRuns(t *testing.T, label, wantRes string, wantEvents []string, gotRes string, gotEvents []string) {
	t.Helper()
	if gotRes != wantRes {
		t.Errorf("%s: result differs\n coordinator: %s\n single node: %s", label, gotRes, wantRes)
	}
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("%s: %d events, single node %d", label, len(gotEvents), len(wantEvents))
	}
	for i := range gotEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("%s: event %d differs\n coordinator: %s\n single node: %s", label, i, gotEvents[i], wantEvents[i])
		}
	}
}

// TestCoordinatorBitIdentical is the tentpole acceptance test: the
// coordinator's merged result and event stream are byte-identical to a
// single-node run of the same request — across backend counts, per-node
// worker budgets, sequential and shot-safe controllers, state sim on and
// off, and pass-through shot offsets.
func TestCoordinatorBitIdentical(t *testing.T) {
	off, on := false, true
	reqs := map[string]api.Request{
		"artery": {
			Workload: "qrw", Param: 3, Controller: "ARTERY", Shots: 36, Seed: 7,
			StreamStages: true, Options: &api.RequestOptions{StateSim: &off},
		},
		"artery-statesim": {
			Workload: "qrw", Param: 3, Controller: "ARTERY", Shots: 20, Seed: 11,
			StreamStages: true, Options: &api.RequestOptions{StateSim: &on},
		},
		"qubic-shotsafe": {
			Workload: "rcnot", Param: 3, Controller: "QubiC", Shots: 36, Seed: 5,
			StreamStages: true, Options: &api.RequestOptions{StateSim: &off},
		},
		"offset-passthrough": {
			Workload: "qrw", Param: 3, Controller: "ARTERY", Shots: 14, ShotOffset: 9, Seed: 7,
			StreamStages: true, Options: &api.RequestOptions{StateSim: &off},
		},
	}
	golden := startNode(t, 2, nil)
	goldenRes := map[string]string{}
	goldenEvents := map[string][]string{}
	for name, req := range reqs {
		goldenRes[name], goldenEvents[name] = runJob(t, golden.ts.URL, req)
	}

	for _, tc := range []struct {
		backends, workers int
	}{{1, 1}, {2, 3}, {4, 1}} {
		var bases []string
		for i := 0; i < tc.backends; i++ {
			bases = append(bases, startNode(t, tc.workers, nil).ts.URL)
		}
		_, coordURL := startCoordinator(t, Config{Backends: bases})
		for name, req := range reqs {
			res, events := runJob(t, coordURL, req)
			label := name + "/" + coordLabel(tc.backends, tc.workers)
			compareRuns(t, label, goldenRes[name], goldenEvents[name], res, events)
		}
	}
}

func coordLabel(backends, workers int) string {
	return fmt.Sprintf("backends=%d,workers=%d", backends, workers)
}

// TestCoordinatorStripsStagesByDefault: the stage deltas are a merge
// internality — a client that did not ask for stream_stages must not
// receive them from the coordinator even though backends always send
// them.
func TestCoordinatorStripsStagesByDefault(t *testing.T) {
	off := false
	n := startNode(t, 2, nil)
	_, coordURL := startCoordinator(t, Config{Backends: []string{n.ts.URL}})
	_, events := runJob(t, coordURL, api.Request{
		Workload: "qrw", Param: 3, Shots: 6, Seed: 3,
		Options: &api.RequestOptions{StateSim: &off},
	})
	for i, ev := range events {
		if strings.Contains(ev, `"stages"`) {
			t.Fatalf("event %d leaks stage deltas without stream_stages: %s", i, ev)
		}
	}
}

// dyingBackend wraps a backend handler: streams die after `lines` NDJSON
// lines, and from that moment the whole node answers 503 — a mid-job
// crash, deterministic regardless of scheduling.
func dyingBackend(lines int) func(http.Handler) http.Handler {
	var dead atomic.Bool
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				http.Error(w, "node crashed", http.StatusServiceUnavailable)
				return
			}
			if strings.HasSuffix(r.URL.Path, "/stream") {
				h.ServeHTTP(&truncWriter{ResponseWriter: w, left: lines, dead: &dead}, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// truncWriter fails writes beyond the limit and flips the node dead.
type truncWriter struct {
	http.ResponseWriter
	left int
	dead *atomic.Bool
}

func (t *truncWriter) Write(p []byte) (int, error) {
	if t.left <= 0 {
		t.dead.Store(true)
		return 0, io.ErrClosedPipe
	}
	t.left--
	return t.ResponseWriter.Write(p)
}

// TestCoordinatorFailsOverMidJob is the failover acceptance test: one of
// two backends dies after streaming three events of its shard; the shard
// is re-dispatched to the survivor and the final result is still
// byte-identical to a single-node run.
func TestCoordinatorFailsOverMidJob(t *testing.T) {
	off := false
	req := api.Request{
		Workload: "qrw", Param: 3, Controller: "ARTERY", Shots: 40, Seed: 13,
		StreamStages: true, Options: &api.RequestOptions{StateSim: &off},
	}
	golden := startNode(t, 2, nil)
	wantRes, wantEvents := runJob(t, golden.ts.URL, req)

	survivor := startNode(t, 2, nil)
	dying := startNode(t, 1, dyingBackend(3))
	co, coordURL := startCoordinator(t, Config{
		Backends:      []string{survivor.ts.URL, dying.ts.URL},
		ShardAttempts: 4,
		// Hedging would rescue the shard on the survivor before the retry
		// loop runs; this test pins the failover path specifically.
		DisableHedging: true,
	})
	res, events := runJob(t, coordURL, req)
	compareRuns(t, "failover", wantRes, wantEvents, res, events)

	var prom strings.Builder
	co.Registry().WriteProm(&prom)
	if !strings.Contains(prom.String(), "artery_cluster_shards_retried_total") {
		t.Fatalf("metrics missing shard counters:\n%s", prom.String())
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "artery_cluster_shards_failed_over_total ") {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("no failover recorded despite a dead backend: %s", line)
			}
			return
		}
	}
	t.Error("artery_cluster_shards_failed_over_total not exposed")
}

// TestCoordinatorFailsJobWhenShardsExhausted: with every backend failing
// its jobs and the attempt budget spent, the job fails with a shard error
// rather than hanging or returning a short result. The backend passes
// /readyz, so the submission is admitted whatever the health probes have
// seen so far; shedding with no ready backend is
// TestCoordinatorNotReadyWithoutBackends.
func TestCoordinatorFailsJobWhenShardsExhausted(t *testing.T) {
	off := false
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/readyz" {
			return
		}
		http.Error(w, "gone", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	_, coordURL := startCoordinator(t, Config{Backends: []string{dead.URL}, ShardAttempts: 2})

	cl := client.MustNew(coordURL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	js, err := cl.Submit(ctx, api.Request{
		Workload: "qrw", Param: 3, Shots: 8, Seed: 1,
		Options: &api.RequestOptions{StateSim: &off},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := cl.Wait(ctx, js.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != api.StateFailed {
		t.Fatalf("job ended %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "shard") {
		t.Errorf("failure message %q does not name the shard", final.Error)
	}
}

// TestCoordinatorRejectsUnrunnableBackend: a request whose explicit
// backend cannot run its workload (DQT's ry gates on the stabilizer
// tableau) is a 400 at the coordinator's admission, so it is never
// dispatched and no backend's breaker counts it as a failure.
func TestCoordinatorRejectsUnrunnableBackend(t *testing.T) {
	a, b := startNode(t, 1, nil), startNode(t, 1, nil)
	co, coordURL := startCoordinator(t, Config{Backends: []string{a.ts.URL, b.ts.URL}})
	for i := 0; i < 2; i++ {
		body := strings.NewReader(`{"workload":"dqt","param":2,"shots":8,"options":{"backend":"stabilizer"}}`)
		resp, err := http.Post(coordURL+"/v1/jobs", "application/json", body)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %d = %d %s, want 400", i, resp.StatusCode, msg)
		}
	}
	for i, be := range co.backends {
		if got := be.brk.current(); got != breakerClosed {
			t.Errorf("backend %d breaker state = %d, want closed (%d)", i, got, breakerClosed)
		}
	}
	var prom strings.Builder
	co.Registry().WriteProm(&prom)
	for _, want := range []string{"artery_cluster_breakers_open 0", "artery_cluster_shards_dispatched_total 0"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, grepProm(prom.String(), "artery_cluster"))
		}
	}
}
