package artery

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"artery/internal/trace"
)

// Tests for the redesigned public surface: functional options with
// validation, context-aware runs, and the observability exporters.

func TestNewRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"theta low", WithTheta(0.5), "Theta"},
		{"theta high", WithTheta(1.0), "Theta"},
		{"window negative", WithWindowNs(-5), "WindowNs"},
		{"window beyond readout", WithWindowNs(1e9), "WindowNs"},
		{"history negative", WithHistoryDepth(-1), "HistoryDepth"},
		{"history deep", WithHistoryDepth(21), "HistoryDepth"},
		{"workers negative", WithWorkers(-1), "Workers"},
		{"sigma negative", WithQuasiStaticSigma(-0.1), "QuasiStaticSigma"},
		{"mode unknown", WithMode(PredictorMode(99)), "mode"},
		{"theta NaN", WithTheta(math.NaN()), "Theta"},
		{"window NaN", WithWindowNs(math.NaN()), "WindowNs"},
		{"sigma NaN", WithQuasiStaticSigma(math.NaN()), "QuasiStaticSigma"},
		{"sigma +Inf", WithQuasiStaticSigma(math.Inf(1)), "QuasiStaticSigma"},
	}
	for _, c := range cases {
		sys, err := New(c.opt)
		if err == nil {
			t.Errorf("%s: New accepted the config", c.name)
			continue
		}
		if sys != nil {
			t.Errorf("%s: New returned a system alongside an error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMustNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(WithTheta(2)) did not panic")
		}
	}()
	MustNew(WithTheta(2))
}

func TestRunContextCanceled(t *testing.T) {
	s := MustNew(WithSeed(4), WithoutStateSim())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.RunContext(ctx, QRW(3), 40)
	if err != nil {
		t.Fatalf("canceled run returned error %v; cancellation is a partial result, not a failure", err)
	}
	if !rep.Canceled || rep.Shots != 0 {
		t.Fatalf("Canceled=%v Shots=%d; want true/0", rep.Canceled, rep.Shots)
	}

	rep, err = s.RunContext(context.Background(), QRW(3), 40)
	if err != nil || rep.Canceled || rep.Shots != 40 {
		t.Fatalf("live run: err=%v Canceled=%v Shots=%d", err, rep.Canceled, rep.Shots)
	}
	if len(rep.Stages) == 0 {
		t.Fatal("report has no stage breakdown")
	}
}

func TestRunWithContextRejectsBadInput(t *testing.T) {
	s := MustNew(WithSeed(4), WithoutStateSim())
	if _, err := s.RunWithContext(context.Background(), "ARTERY", nil, 10); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := s.RunWithContext(context.Background(), "NoSuch", QRW(1), 10); err == nil {
		t.Fatal("unknown controller accepted")
	}
	if _, err := s.RunWithContext(context.Background(), "ARTERY", QRW(2), -1); err == nil {
		t.Fatal("negative shot count accepted")
	}
	if _, err := s.RunRangeStream(context.Background(), "QubiC", QRW(2), math.MaxInt-2, 8, nil); err == nil {
		t.Fatal("overflowing shot range accepted")
	}
}

func TestTracingExportsJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := MustNew(WithSeed(6), WithoutStateSim(), WithTracing(&buf))
	rep := s.Run(QRW(2), 25)
	if rep.Shots != 25 {
		t.Fatalf("Shots = %d", rep.Shots)
	}
	ev, err := trace.ParseJSONL(buf.Bytes())
	if err != nil {
		t.Fatalf("trace output is not valid JSONL: %v", err)
	}
	if len(ev) == 0 {
		t.Fatal("traced run emitted no events")
	}
	last := int32(-1)
	for _, e := range ev {
		if e.Shot < last {
			t.Fatalf("trace stream out of shot order: %d after %d", e.Shot, last)
		}
		last = e.Shot
	}
	if int(last) != 24 {
		t.Fatalf("last traced shot %d, want 24", last)
	}

	// Each run flushes and resets: a second run emits a fresh stream
	// rather than duplicating the first.
	buf.Reset()
	s.Run(QRW(2), 5)
	ev2, err := trace.ParseJSONL(buf.Bytes())
	if err != nil || len(ev2) == 0 {
		t.Fatalf("second flush: %d events, err=%v", len(ev2), err)
	}
	if int(ev2[len(ev2)-1].Shot) != 4 {
		t.Fatalf("second run's last shot %d, want 4", ev2[len(ev2)-1].Shot)
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	s := MustNew(WithSeed(6), WithoutStateSim(), WithMetrics())
	s.Run(QRW(2), 25)
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"artery_shots_total 25",
		"# TYPE artery_shot_latency_ns histogram",
		"artery_feedback_sites_total",
		`artery_shot_latency_ns_bucket{le="+Inf"} 25`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Without WithMetrics the exposition is empty, not an error.
	var none bytes.Buffer
	if err := sys.WriteMetrics(&none); err != nil {
		t.Fatal(err)
	}
	if none.Len() != 0 {
		t.Fatalf("metrics-off system wrote %q", none.String())
	}
}
