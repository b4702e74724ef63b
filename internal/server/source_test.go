package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"artery"
	"artery/api"
	"artery/internal/core"
	"artery/internal/trace"
)

// fakeSource is a Source that emits synthetic shots (fakeShot) and
// records every range it is asked for. With stopAfter >= 0 it stops after
// that many shots of a call: failing with errSourceFailed, or, when
// cancel is set, reporting a canceled range.
type fakeSource struct {
	stopAfter int
	cancel    bool

	mu     sync.Mutex
	ranges [][2]int // {lo, shots} per call
}

var errSourceFailed = errors.New("source failed")

func (f *fakeSource) run(ctx context.Context, req api.Request, wl *artery.Workload, lo, shots int, emit func(artery.ShotUpdate)) (bool, error) {
	f.mu.Lock()
	f.ranges = append(f.ranges, [2]int{lo, shots})
	f.mu.Unlock()
	for i := 0; i < shots; i++ {
		if i == f.stopAfter {
			if f.cancel {
				return true, nil
			}
			return false, errSourceFailed
		}
		emit(fakeShot(lo + i))
	}
	return false, nil
}

func (f *fakeSource) calls() [][2]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][2]int(nil), f.ranges...)
}

// fakeShot is global shot i of a synthetic run: distinct latency and
// stage deltas per shot, no fidelity.
func fakeShot(i int) artery.ShotUpdate {
	return artery.ShotUpdate{
		Shot: i, LatencyNs: float64(100 + i), Fidelity: math.NaN(),
		Sites: 2, Commits: 1 + i%2, Correct: 1,
		Stages: []core.StageDelta{
			{Stage: trace.StagePayload, Ns: 40},
			{Stage: trace.StageReadout, Ns: float64(60 + i)},
		},
	}
}

// fakeResult is the result document of the synthetic run [lo, lo+n).
func fakeResult(t *testing.T, req api.Request, lo, n int, canceled bool) []byte {
	t.Helper()
	wl, err := api.ValidateRequest(req, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	agg := api.NewMerger(req, wl)
	for i := lo; i < lo+n; i++ {
		agg.AddShot(fakeShot(i))
	}
	b, _ := json.Marshal(agg.Result(canceled))
	return b
}

// TestSourceRunsOnlyTheRemainder checks the Source contract on resume: a
// job recovered with k journaled shots asks the source for exactly
// [offset+k, offset+shots), and never calls it when the journal already
// holds every shot. The result and the stream cover the whole range
// either way, and the settled job drops its workload and prefix.
func TestSourceRunsOnlyTheRemainder(t *testing.T) {
	req := api.Request{Workload: "qrw", Param: 3, Shots: 10, ShotOffset: 5, Seed: 1}
	var journal []api.ShotEvent
	for i := 0; i < req.Shots; i++ {
		journal = append(journal, api.EventFrom(fakeShot(req.ShotOffset+i), true))
	}
	want := fakeResult(t, req, req.ShotOffset, req.Shots, false)
	for _, k := range []int{0, 4, req.Shots} {
		t.Run(fmt.Sprintf("cut%d", k), func(t *testing.T) {
			dir := t.TempDir()
			buildCrashedJournal(t, dir, "job-1", req, journal, k)
			src := &fakeSource{stopAfter: -1}
			ss := startStored(t, dir, Config{MaxConcurrentJobs: 1, Source: src.run})
			defer ss.stop(t)
			final := waitTerminal(t, ss.ts.URL, "job-1")
			if final.State != api.StateDone || final.Result == nil {
				t.Fatalf("job ended %s: %s", final.State, final.Error)
			}
			if got, _ := json.Marshal(final.Result); string(got) != string(want) {
				t.Errorf("result\n got %s\nwant %s", got, want)
			}
			// A settled job keeps only what status and stream serve.
			if j, _ := ss.s.job("job-1"); j.wl != nil || j.prefix != nil {
				t.Errorf("settled job still holds its workload (%v) or a %d-event prefix", j.wl != nil, len(j.prefix))
			}
			wantCalls := [][2]int{{req.ShotOffset + k, req.Shots - k}}
			if k == req.Shots {
				wantCalls = nil
			}
			if got := src.calls(); fmt.Sprint(got) != fmt.Sprint(wantCalls) {
				t.Errorf("source asked for %v, want %v", got, wantCalls)
			}
			events, _ := readStream(t, ss.ts.URL, "job-1")
			if len(events) != req.Shots {
				t.Fatalf("%d streamed events, want %d", len(events), req.Shots)
			}
			for i, ev := range events {
				if ev.Shot != req.ShotOffset+i {
					t.Fatalf("event %d carries shot %d, want %d", i, ev.Shot, req.ShotOffset+i)
				}
			}
		})
	}
}

// TestSourceFailureFailsJob: a source that fails after k shots leaves a
// failed job with exactly the k committed shots streamed and journaled,
// and a failed terminal record.
func TestSourceFailureFailsJob(t *testing.T) {
	const k = 3
	src := &fakeSource{stopAfter: k}
	ss := startStored(t, t.TempDir(), Config{MaxConcurrentJobs: 1, Source: src.run})
	defer ss.stop(t)
	resp := postJob(t, ss.ts.URL, `{"workload":"qrw","param":3,"shots":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	js := decodeStatus(t, resp)
	final := waitTerminal(t, ss.ts.URL, js.ID)
	if final.State != api.StateFailed || final.Error != errSourceFailed.Error() || final.Result != nil {
		t.Fatalf("job ended %s (%q, result %v), want failed with the source's error", final.State, final.Error, final.Result)
	}
	if final.ShotsStreamed != k {
		t.Errorf("status reports %d shots streamed, want %d", final.ShotsStreamed, k)
	}
	events, end := readStream(t, ss.ts.URL, js.ID)
	if len(events) != k || end.State != api.StateFailed {
		t.Errorf("stream: %d events ending %s, want %d ending failed", len(events), end.State, k)
	}
	journaled, err := ss.st.Events(js.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != k {
		t.Errorf("%d journaled events, want %d", len(journaled), k)
	}
	rec, ok := ss.st.Lookup(js.ID)
	if !ok || rec.State != api.StateFailed || rec.Error != errSourceFailed.Error() {
		t.Errorf("terminal record %+v (found %v), want failed with the source's error", rec, ok)
	}
}

// TestSourceCancelIsCanceledPrefix: a source that reports a canceled
// range settles the job done, with the canceled prefix as its result.
func TestSourceCancelIsCanceledPrefix(t *testing.T) {
	const k = 4
	src := &fakeSource{stopAfter: k, cancel: true}
	ss := startStored(t, t.TempDir(), Config{MaxConcurrentJobs: 1, Source: src.run})
	defer ss.stop(t)
	js := decodeStatus(t, postJob(t, ss.ts.URL, `{"workload":"qrw","param":3,"shots":10}`))
	final := waitTerminal(t, ss.ts.URL, js.ID)
	if final.State != api.StateDone || final.Result == nil || !final.Result.Canceled || final.Result.Shots != k {
		t.Fatalf("job ended %s (%s) with result %+v, want done with a %d-shot canceled prefix", final.State, final.Error, final.Result, k)
	}
	got, _ := json.Marshal(final.Result)
	if want := fakeResult(t, api.Request{Workload: "qrw", Param: 3, Shots: 10}, 0, k, true); string(got) != string(want) {
		t.Errorf("result\n got %s\nwant %s", got, want)
	}
}

// TestJournaledEventsCarryStages: the journal keeps every shot's stage
// deltas (the resume fold needs them) even when the request did not ask
// for them on its stream, which stays trimmed.
func TestJournaledEventsCarryStages(t *testing.T) {
	src := &fakeSource{stopAfter: -1}
	ss := startStored(t, t.TempDir(), Config{MaxConcurrentJobs: 1, Source: src.run})
	defer ss.stop(t)
	js := decodeStatus(t, postJob(t, ss.ts.URL, `{"workload":"qrw","param":3,"shots":6}`))
	if final := waitTerminal(t, ss.ts.URL, js.ID); final.State != api.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	journaled, err := ss.st.Events(js.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != 6 {
		t.Fatalf("%d journaled events, want 6", len(journaled))
	}
	for i, ev := range journaled {
		if want := api.EventFrom(fakeShot(i), true); !api.EventsEqual(ev, want) {
			t.Errorf("journaled event %d = %+v, want %+v", i, ev, want)
		}
	}
	events, _ := readStream(t, ss.ts.URL, js.ID)
	for i, ev := range events {
		if len(ev.Stages) != 0 {
			t.Errorf("streamed event %d carries stages the request did not ask for", i)
		}
	}
}
