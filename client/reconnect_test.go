package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artery/internal/server"
)

// TestNewValidatesBaseURL: the redesigned constructor fails fast on
// malformed bases instead of erroring on the first request.
func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:7717", "ftp://host", "http://", "http://host/?x=1", "://nope"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted an invalid base", bad)
		}
	}
	c, err := New("http://127.0.0.1:7717/")
	if err != nil {
		t.Fatalf("New rejected a valid base: %v", err)
	}
	if got := c.Base(); got != "http://127.0.0.1:7717" {
		t.Errorf("trailing slash survived normalization: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on an invalid base")
		}
	}()
	MustNew(":not a url:")
}

// chokeStream wraps a real server handler and truncates every stream
// response after limit NDJSON lines, closing the connection — the client
// must reconnect with ?from= and keep going.
func chokeStream(h http.Handler, limit int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/stream") {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(&truncWriter{ResponseWriter: w, left: limit}, r)
	})
}

// truncWriter counts newline-terminated writes and fails after the
// limit, making the server handler abandon the response mid-stream.
type truncWriter struct {
	http.ResponseWriter
	left int
}

func (t *truncWriter) Write(p []byte) (int, error) {
	if t.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	t.left--
	return t.ResponseWriter.Write(p)
}

// TestStreamReconnectResumes: every stream connection dies after two
// events, yet the client's transparent ?from= reconnects deliver the
// complete in-order event sequence exactly once.
func TestStreamReconnectResumes(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 2})
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(chokeStream(s.Handler(), 2))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := MustNew(ts.URL, WithRetries(4), WithBackoff(time.Millisecond, 10*time.Millisecond))

	off := false
	const shots = 11
	js, err := c.Submit(ctx, Request{
		Workload: "qrw", Param: 3, Shots: shots, Seed: 3,
		Options: &RequestOptions{StateSim: &off},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := c.Stream(ctx, js.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()
	reconnects := 0
	c.onRetry = func(RetryInfo) { reconnects++ }
	got := 0
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d events: %v", got, err)
		}
		if ev.Shot != got {
			t.Fatalf("event %d carries shot %d: resume skipped or duplicated", got, ev.Shot)
		}
		got++
	}
	if got != shots {
		t.Fatalf("delivered %d events, want %d", got, shots)
	}
	if end := st.End(); end == nil || end.State != "done" || end.Result == nil || end.Result.Shots != shots {
		t.Fatalf("stream end %+v", end)
	}
	if reconnects == 0 {
		t.Fatal("stream finished without a single reconnect: the choke wrapper is not engaging")
	}
}

// TestStreamFromSkipsPrefix: StreamFrom is the public resume primitive.
func TestStreamFromSkipsPrefix(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 4, MaxConcurrentJobs: 1, WorkerBudget: 2})
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := MustNew(ts.URL)
	off := false
	js, err := c.Submit(ctx, Request{Workload: "qrw", Param: 3, Shots: 9, Seed: 2, Options: &RequestOptions{StateSim: &off}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, js.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st, err := c.StreamFrom(ctx, js.ID, 6)
	if err != nil {
		t.Fatalf("StreamFrom: %v", err)
	}
	defer st.Close()
	want := 6
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if ev.Shot != want {
			t.Fatalf("event carries shot %d, want %d", ev.Shot, want)
		}
		want++
	}
	if want != 9 {
		t.Fatalf("resumed stream delivered up to shot %d, want 9", want)
	}
	if _, err := c.StreamFrom(ctx, js.ID, -1); err == nil {
		t.Error("StreamFrom(-1) succeeded")
	}
}

// TestStreamRecoverHonorsCancel: canceling the stream's context must
// interrupt a reconnect backoff immediately, not after the full delay.
func TestStreamRecoverHonorsCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// One event, then the connection dies without a done line — every
		// Next past the first enters the reconnect path.
		w.Write([]byte(`{"shot":0}` + "\n"))
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := MustNew(ts.URL, WithBackoff(30*time.Second, 30*time.Second))
	st, err := c.StreamFrom(ctx, "job-1", 0)
	if err != nil {
		t.Fatalf("StreamFrom: %v", err)
	}
	defer st.Close()
	if ev, err := st.Next(); err != nil || ev.Shot != 0 {
		t.Fatalf("first Next: %+v, %v", ev, err)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = st.Next()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Next blocked %v through the backoff after cancel", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("Next after cancel: %v, want a canceled error", err)
	}
}
