package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"artery/api"
)

// span is one timed call at a layer boundary. Parent is the index of the
// span that caused it (-1 for none); Job is the job id the call concerns.
type span struct {
	Name    string  `json:"name"`
	Node    string  `json:"node,omitempty"`
	Job     string  `json:"job,omitempty"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Bytes   int64   `json:"bytes,omitempty"`
	OK      bool    `json:"ok"`
}

// submission is a job a node accepted, as its middleware saw the body,
// stamped with the time it arrived.
type submission struct {
	node string
	atUs float64
	req  api.Request
}

// tracer keeps the traced run's spans and boundary counts in memory; they
// are written out when the run ends. All methods are safe for concurrent
// use.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	subs    []submission
	queueMs []float64
	retries int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its index.
func (t *tracer) begin(name, node, job string, parent int) int {
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Node: node, Job: job, Parent: parent, StartUs: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int, bytes int64, ok bool) {
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.EndUs, s.Bytes, s.OK = now, bytes, ok
}

// setJob names the job a span concerns once it is known (a submit span
// learns its id from the response).
func (t *tracer) setJob(i int, job string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Job = job
}

func (t *tracer) noteQueue(ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queueMs = append(t.queueMs, ms)
}

func (t *tracer) noteRetry() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retries++
}

// snapshot copies the recorded spans and submissions.
func (t *tracer) snapshot() ([]span, []submission) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]submission(nil), t.subs...)
}

// routeOf names an API route and extracts the job id from a request path.
func routeOf(path string) (route, job string) {
	rest, ok := strings.CutPrefix(path, "/v1/jobs")
	switch {
	case !ok:
		return strings.TrimPrefix(path, "/"), ""
	case rest == "":
		return "submit", ""
	case strings.HasSuffix(rest, "/stream"):
		return "stream", strings.TrimSuffix(strings.TrimPrefix(rest, "/"), "/stream")
	default:
		return "status", strings.TrimPrefix(rest, "/")
	}
}

// middleware wraps a node's handler: every request becomes a
// "server.<route>" span carrying the response bytes, and every accepted
// submission's body is kept (it tells which shot ranges each node ran).
func (t *tracer) middleware(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, job := routeOf(r.URL.Path)
		var req *api.Request
		if route == "submit" && r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var q api.Request
				if json.Unmarshal(body, &q) == nil {
					req = &q
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		at := t.us(time.Now())
		i := t.begin("server."+route, node, job, -1)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(cw, r)
		t.end(i, cw.n, cw.status < 300)
		if req != nil && cw.status == http.StatusAccepted {
			t.mu.Lock()
			t.subs = append(t.subs, submission{node: node, atUs: at, req: *req})
			t.mu.Unlock()
		}
	})
}

// countingWriter counts response bytes and keeps streaming flushes
// working through the wrapper.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// roundTripper wraps the coordinator's backend transport: submissions
// become "cluster.submit" spans named after the backend job they
// created, and shard streams become "cluster.stream" spans that end when
// the coordinator closes the stream and carry the bytes it read.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		route, job := routeOf(req.URL.Path)
		i := t.begin("cluster."+route, req.URL.Host, job, -1)
		resp, err := next.RoundTrip(req)
		if err != nil {
			t.end(i, 0, false)
			return nil, err
		}
		if route != "stream" {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(body))
			if route == "submit" && rerr == nil {
				var js api.JobStatus
				if json.Unmarshal(body, &js) == nil {
					t.setJob(i, js.ID)
				}
			}
			t.end(i, int64(len(body)), rerr == nil && resp.StatusCode < 300)
			return resp, nil
		}
		resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64, ok bool) { t.end(i, n, ok && resp.StatusCode == http.StatusOK) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody counts a stream's bytes and reports once, on Close,
// whether every read succeeded (a hedge loser is cut off by its canceled
// context and reports false).
type countingBody struct {
	io.ReadCloser
	n      int64
	failed bool
	once   sync.Once
	done   func(n int64, ok bool)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil && err != io.EOF {
		b.failed = true
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n, !b.failed) })
	return err
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
