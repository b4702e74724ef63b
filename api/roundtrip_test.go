package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"artery"
)

// wireMode is one way a job streams shots: the workload, the library
// options, the shot range, and (cancelAt > 0) a context canceled once
// that many shots have streamed, leaving a canceled prefix.
type wireMode struct {
	name          string
	wl            func() *artery.Workload
	opts          []artery.Option
	offset, shots int
	cancelAt      int
}

var wireModes = []wireMode{
	{name: "state-sim", wl: func() *artery.Workload { return artery.QRW(3) }, shots: 24},
	{name: "no-state-sim", wl: func() *artery.Workload { return artery.QRW(3) }, opts: []artery.Option{artery.WithoutStateSim()}, shots: 24},
	{name: "stabilizer", wl: func() *artery.Workload { return artery.Surface(3) }, opts: []artery.Option{artery.WithBackend("stabilizer")}, shots: 8},
	{name: "canceled-prefix", wl: func() *artery.Workload { return artery.QRW(3) }, shots: 100, cancelAt: 40},
	{name: "range", wl: func() *artery.Workload { return artery.QRW(3) }, offset: 25, shots: 20},
}

// run streams the mode under ctrl and returns the workload, every
// streamed shot and the run's report.
func (m wireMode) run(tb testing.TB, ctrl string) (*artery.Workload, []artery.ShotUpdate, artery.Report) {
	tb.Helper()
	sys, err := artery.New(append([]artery.Option{artery.WithSeed(5), artery.WithWorkers(2)}, m.opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wl := m.wl()
	var shots []artery.ShotUpdate
	rep, err := sys.RunRangeStream(ctx, ctrl, wl, m.offset, m.shots, func(u artery.ShotUpdate) {
		shots = append(shots, u)
		if len(shots) == m.cancelAt {
			cancel()
		}
	})
	if err != nil {
		tb.Fatalf("%s/%s: %v", m.name, ctrl, err)
	}
	return wl, shots, rep
}

// sameShot compares two shots field by field, NaN fidelity equal to NaN
// and stage deltas in order.
func sameShot(a, b artery.ShotUpdate) bool {
	if a.Shot != b.Shot || a.LatencyNs != b.LatencyNs || a.Sites != b.Sites ||
		a.Commits != b.Commits || a.Correct != b.Correct || a.Fallbacks != b.Fallbacks ||
		len(a.Stages) != len(b.Stages) {
		return false
	}
	if a.Fidelity != b.Fidelity && !(math.IsNaN(a.Fidelity) && math.IsNaN(b.Fidelity)) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			return false
		}
	}
	return true
}

// TestWireRoundTripAndFold checks, for ARTERY and QubiC in every wire
// mode, that each streamed shot survives EventFrom → JSON → ShotFrom
// unchanged, and that folding the decoded events through a Merger gives
// the result bytes of the run's own report.
func TestWireRoundTripAndFold(t *testing.T) {
	for _, m := range wireModes {
		for _, ctrl := range []string{"ARTERY", "QubiC"} {
			wl, shots, rep := m.run(t, ctrl)
			label := m.name + "/" + ctrl
			if len(shots) == 0 || len(shots) != rep.Shots || shots[0].Shot != m.offset {
				t.Fatalf("%s: %d shots streamed (want the first at %d), report has %d", label, len(shots), m.offset, rep.Shots)
			}
			if rep.Canceled != (m.cancelAt > 0) {
				t.Fatalf("%s: report canceled = %v", label, rep.Canceled)
			}
			if finite := !math.IsNaN(shots[0].Fidelity); finite != (m.name != "no-state-sim" && m.name != "stabilizer") {
				t.Fatalf("%s: first shot fidelity %v", label, shots[0].Fidelity)
			}
			agg := NewMerger(Request{Controller: ctrl}, wl)
			for _, u := range shots {
				line, err := json.Marshal(EventFrom(u, true))
				if err != nil {
					t.Fatalf("%s: encode shot %d: %v", label, u.Shot, err)
				}
				var ev ShotEvent
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("%s: decode shot %d: %v", label, u.Shot, err)
				}
				back, err := ShotFrom(ev)
				if err != nil {
					t.Fatalf("%s: ShotFrom(shot %d): %v", label, u.Shot, err)
				}
				if !sameShot(back, u) {
					t.Fatalf("%s: shot %d round trip\n got %+v\nwant %+v", label, u.Shot, back, u)
				}
				if err := agg.Add(ev); err != nil {
					t.Fatalf("%s: Merger.Add(shot %d): %v", label, u.Shot, err)
				}
			}
			got, _ := json.Marshal(agg.Result(rep.Canceled))
			want, _ := json.Marshal(ResultFrom(rep))
			if !bytes.Equal(got, want) {
				t.Errorf("%s: folded result\n got %s\nwant %s", label, got, want)
			}
		}
	}
}

// TestShotFromRejects checks the events a fold cannot use.
func TestShotFromRejects(t *testing.T) {
	bad := map[string]ShotEvent{
		"no stage deltas": {Shot: 1, LatencyNs: 10},
		"unknown stage":   {Shot: 1, LatencyNs: 10, Stages: []StageDelta{{Stage: "payload", Ns: 1}, {Stage: "warp", Ns: 2}}},
	}
	for name, ev := range bad {
		if _, err := ShotFrom(ev); err == nil {
			t.Errorf("%s: ShotFrom accepted %+v", name, ev)
		}
		if err := NewMerger(Request{}, artery.QRW(3)).Add(ev); err == nil {
			t.Errorf("%s: Merger.Add accepted %+v", name, ev)
		}
	}
}

// FuzzShotEvent feeds arbitrary bytes to the NDJSON event decoder and
// both event checks: nothing may panic, and an event that ValidateEvent
// and ShotFrom both accept must re-encode, through ShotFrom and EventFrom,
// to its own JSON.
func FuzzShotEvent(f *testing.F) {
	var ev ShotEvent
	for _, m := range wireModes {
		_, shots, _ := m.run(f, "ARTERY")
		ev = EventFrom(shots[len(shots)-1], true)
		line, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	// Fault-free runs never fall back, so no real line carries the
	// omitempty fallbacks field; one seed that does keeps it in play.
	ev.Fallbacks = 1
	line, _ := json.Marshal(ev)
	f.Add(line)
	f.Fuzz(func(t *testing.T, line []byte) {
		var ev ShotEvent
		if json.Unmarshal(line, &ev) != nil {
			return
		}
		verr := ValidateEvent(ev)
		u, serr := ShotFrom(ev)
		if verr != nil || serr != nil {
			return
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("encode accepted event %+v: %v", ev, err)
		}
		got, err := json.Marshal(EventFrom(u, true))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round trip of %s\n got %s (err %v)\nwant %s", line, got, err, want)
		}
	})
}
