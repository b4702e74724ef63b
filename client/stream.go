package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"

	"artery/api"
)

// Stream iterates a job's NDJSON per-shot updates. Events arrive in shot
// order (the server emits them from the engine's in-order merge path);
// after Next returns io.EOF, End holds the job's terminal state and
// result.
//
// A dropped connection is transparent: Next reopens the stream with
// ?from=<delivered>, resuming at the first event the caller has not yet
// seen (the server's event log is deterministic and append-only, so the
// resumed stream continues exactly where the old one broke). Reconnects
// share the client's retry budget and backoff schedule; the budget
// resets every time an event is delivered.
type Stream struct {
	c   *Client
	ctx context.Context
	id  string

	body io.ReadCloser
	sc   *bufio.Scanner
	end  *api.StreamEnd

	delivered  int // events handed to the caller == next ?from=
	reconnects int // attempts used on the current gap
}

// streamLine is the union of the two NDJSON line shapes: a ShotEvent, or
// the terminal StreamEnd line ("done":true).
type streamLine struct {
	ShotEvent
	Done   bool        `json:"done"`
	State  string      `json:"state"`
	Error  string      `json:"error"`
	Result *api.Result `json:"result"`
}

// Stream opens the per-shot event stream of a job from its first event.
// The request uses a dedicated no-timeout client derived from the
// configured transport — streams live as long as the job — so bound it
// with ctx.
func (c *Client) Stream(ctx context.Context, id string) (*Stream, error) {
	return c.StreamFrom(ctx, id, 0)
}

// StreamFrom opens a job's event stream skipping the first from events —
// the resume primitive: a caller that already consumed n events continues
// with StreamFrom(ctx, id, n).
func (c *Client) StreamFrom(ctx context.Context, id string, from int) (*Stream, error) {
	if from < 0 {
		return nil, fmt.Errorf("stream: from must be non-negative, got %d", from)
	}
	s := &Stream{c: c, ctx: ctx, id: id, delivered: from}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// open (re)establishes the HTTP stream from s.delivered.
func (s *Stream) open() error {
	u := s.c.base + "/v1/jobs/" + s.id + "/stream"
	if s.delivered > 0 {
		u += "?from=" + strconv.Itoa(s.delivered)
	}
	hreq, err := http.NewRequestWithContext(s.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	hc := &http.Client{Transport: s.c.hc.Transport}
	resp, err := hc.Do(hreq)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return httpErrorFrom(resp.StatusCode, resp.Body)
	}
	if s.body != nil {
		s.body.Close()
	}
	s.body = resp.Body
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	s.sc = sc
	return nil
}

// Next returns the next per-shot event. It returns io.EOF once the
// terminal line arrives (see End). Transport failures mid-stream trigger
// transparent reconnects (resuming from the last delivered event) until
// the client's retry budget is exhausted.
func (s *Stream) Next() (ShotEvent, error) {
	for {
		ev, err := s.next()
		if err == nil {
			s.delivered++
			s.reconnects = 0
			return ev, nil
		}
		if err == io.EOF {
			return ShotEvent{}, io.EOF
		}
		if rerr := s.recover(err); rerr != nil {
			return ShotEvent{}, rerr
		}
	}
}

// next reads one line off the current connection.
func (s *Stream) next() (ShotEvent, error) {
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// The wire format is pure ASCII JSON, so any invalid UTF-8 is
		// corruption in flight. Checking before decoding matters: a
		// corrupt byte inside a KEY would decode as U+FFFD, turn the key
		// unknown, and silently zero the field — json.Unmarshal alone
		// cannot see that. Failing here routes through the reconnect
		// path, which re-fetches the line clean via ?from=.
		if !utf8.Valid(line) {
			return ShotEvent{}, fmt.Errorf("stream: line %d is not valid UTF-8 (corrupted in flight)", s.delivered)
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			return ShotEvent{}, fmt.Errorf("stream: bad line: %w", err)
		}
		if l.Done {
			s.end = &api.StreamEnd{Done: true, State: l.State, Error: l.Error, Result: l.Result}
			return ShotEvent{}, io.EOF
		}
		return l.ShotEvent, nil
	}
	if err := s.sc.Err(); err != nil {
		return ShotEvent{}, fmt.Errorf("stream: %w", err)
	}
	return ShotEvent{}, fmt.Errorf("stream: connection closed before the job finished")
}

// recover attempts one reconnect after cause, honoring the context and
// the retry budget. A permanent failure (budget exhausted, 4xx on
// reopen, canceled context) returns the error Next should surface.
func (s *Stream) recover(cause error) error {
	for {
		if s.ctx.Err() != nil {
			return s.ctx.Err()
		}
		if s.reconnects >= s.c.retries {
			return fmt.Errorf("stream: giving up after %d reconnect attempts: %w", s.reconnects, cause)
		}
		info := s.c.delay(s.reconnects, cause)
		s.reconnects++
		if s.c.onRetry != nil {
			s.c.onRetry(info)
		}
		if err := s.c.sleep(s.ctx, info.Delay); err != nil {
			return err
		}
		err := s.open()
		if err == nil {
			return nil
		}
		// The job vanished (evicted, or the server restarted empty):
		// reconnecting can't help.
		if he, ok := err.(*httpError); ok && he.status >= 400 && he.status < 500 {
			return fmt.Errorf("stream: reconnect failed permanently: %w", err)
		}
		cause = err
	}
}

// End returns the terminal line (state, error, result) once Next has
// returned io.EOF; nil before that.
func (s *Stream) End() *api.StreamEnd { return s.end }

// Close releases the underlying connection.
func (s *Stream) Close() error {
	if s.body == nil {
		return nil
	}
	return s.body.Close()
}
