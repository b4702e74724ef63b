package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"artery"
	"artery/api"
)

// errDeterminism marks the one unrecoverable shard failure: two attempts
// of the same shard delivered different bytes for the same global shot.
// Retrying cannot help — the fleet is lying about the determinism
// contract the merge path rests on — so the job fails loudly instead of
// silently picking a winner.
var errDeterminism = errors.New("cluster: attempts disagree on a shot's bytes (non-deterministic backend)")

// shardRange is one contiguous global shot range [Lo, Hi).
type shardRange struct{ Lo, Hi int }

// splitRange cuts the global range [offset, offset+shots) into at most n
// contiguous shards of near-equal size (earlier shards take the
// remainder), never emitting an empty shard.
func splitRange(offset, shots, n int) []shardRange {
	if n < 1 {
		n = 1
	}
	if n > shots {
		n = shots
	}
	out := make([]shardRange, 0, n)
	base, rem := shots/n, shots%n
	lo := offset
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, shardRange{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// shard is one dispatched shot range moving through scatter-gather. The
// buffer is ordinal-addressed and append-only: every attempt (first
// dispatch, failover replay, hedge duplicate) offers each event under
// its ordinal — the shot's index within the shard — and the buffer
// appends the first copy of each new ordinal, discards ordinals already
// merged past, and asserts bit-identity against ordinals still buffered.
// Nothing ever resets, so concurrent attempts can interleave freely: a
// replay races through the verified prefix by dedup while the merger
// keeps consuming, and a divergent byte anywhere is a loud determinism
// error instead of a silent coin flip.
//
// The merger addresses the buffer by its consumed-event cursor minus
// base and trims the prefix it has merged (the job's own event log holds
// the merged copy, so the coordinator never buffers a job's events
// twice).
type shard struct {
	index  int
	rng    shardRange
	mu     sync.Mutex
	events []api.ShotEvent
	base   int   // ordinal of events[0]; grows only by merger trims
	done   bool  // the shard's attempts are over
	err    error // terminal failure after the attempt budget
	notify chan struct{}
}

func newShard(index int, r shardRange) *shard {
	return &shard{index: index, rng: r, notify: make(chan struct{})}
}

// broadcast wakes the merger. Callers hold the lock.
func (s *shard) broadcast() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// offer folds one attempt's event in under its ordinal (see the shard
// comment). The returned error is a determinism violation — terminal for
// the whole job.
func (s *shard) offer(ordinal int, ev api.ShotEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.base + len(s.events)
	switch {
	case ordinal < s.base:
		// Already merged and trimmed: a replay or hedge catching up
		// through territory the merger has consumed.
		return nil
	case ordinal < next:
		if !api.EventsEqual(s.events[ordinal-s.base], ev) {
			return fmt.Errorf("%w: shard [%d,%d) shot %d", errDeterminism, s.rng.Lo, s.rng.Hi, ev.Shot)
		}
		return nil
	case ordinal == next:
		s.events = append(s.events, ev)
		s.broadcast()
		return nil
	default:
		// Attempts deliver ordinals sequentially from zero; a gap can
		// only mean a coordinator bug.
		return fmt.Errorf("cluster: internal error: shard [%d,%d) offered ordinal %d past %d", s.rng.Lo, s.rng.Hi, ordinal, next)
	}
}

// finish records the shard's terminal outcome: success (nil), or the
// error that exhausted the attempt budget.
func (s *shard) finish(err error) {
	s.mu.Lock()
	s.done, s.err = true, err
	s.broadcast()
	s.mu.Unlock()
}

// source is the coordinator's shot source (server.Config.Source): split
// the global range [lo, lo+shots) into contiguous shards, dispatch each
// to a backend, and gather their per-shot event streams in global shot
// order. The embedded server folds the journaled prefix, asks for only
// the remainder, and journals and settles the job, so a restarted
// coordinator re-shards just the range past the last durable merged shot.
// Honors ctx: a drain — or an expired DeadlineMs, which the embedded
// server turns into a context deadline — stops with the deterministic
// merged prefix, exactly like a drained single node.
func (c *Coordinator) source(ctx context.Context, req api.Request, _ *artery.Workload, lo, shots int, emit func(artery.ShotUpdate)) (canceled bool, err error) {
	shards := make([]*shard, 0, c.cfg.Shards)
	for i, r := range splitRange(lo, shots, c.cfg.Shards) {
		shards = append(shards, newShard(i, r))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stop in-flight shard streams once the range settles
	for _, sh := range shards {
		go c.runShard(ctx, req, sh)
	}
	return gather(ctx, shards, emit)
}

// runShard drives one shard to completion: dispatch to a backend (with a
// hedge after the hedge delay), and on failure retry on the next healthy
// backend with jittered exponential backoff, up to the attempt budget. A
// determinism violation is terminal immediately — no retry can make two
// divergent byte streams agree.
func (c *Coordinator) runShard(ctx context.Context, req api.Request, sh *shard) {
	var lastErr error
	var prev *backend
	for attempt := 0; attempt < c.cfg.ShardAttempts; attempt++ {
		if attempt > 0 {
			c.m.shardsRetried.Inc()
			d := failoverDelay(attempt)
			c.m.backoffSleepMs.Add(d.Milliseconds())
			select {
			case <-time.After(d):
			case <-ctx.Done():
				sh.finish(ctx.Err())
				return
			}
		}
		b := c.pickBackend(sh.index, attempt, nil)
		if attempt > 0 && b != prev {
			c.m.shardsFailedOver.Inc()
		}
		prev = b
		err := c.runAttempt(ctx, req, sh, b)
		if err == nil {
			sh.finish(nil)
			return
		}
		if errors.Is(err, errDeterminism) {
			sh.finish(err)
			return
		}
		if ctx.Err() != nil {
			sh.finish(ctx.Err())
			return
		}
		lastErr = err
	}
	c.m.shardsFailed.Inc()
	sh.finish(fmt.Errorf("shard [%d,%d) failed after %d attempts: %w", sh.rng.Lo, sh.rng.Hi, c.cfg.ShardAttempts, lastErr))
}

// runAttempt races a primary dispatch against an optional hedge: if the
// primary has not finished after the hedge delay, the same shard is
// dispatched to a different backend and the first terminal answer wins.
// Safe under the determinism contract — both attempts must produce
// identical bytes, and the shard buffer asserts it — so first-wins
// cannot change output, only wall time. The losing attempt is canceled
// through the attempt context; its outcome is never recorded against its
// backend's breaker (a cancellation is the coordinator's doing, not the
// backend's failure).
func (c *Coordinator) runAttempt(ctx context.Context, req api.Request, sh *shard, primary *backend) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		err    error
		b      *backend
		hedged bool
	}
	ch := make(chan outcome, 2)
	launch := func(b *backend, hedged bool) {
		c.m.shardsDispatched.Inc()
		b.attempts.Inc()
		go func() {
			ch <- outcome{err: c.tryShard(actx, b, req, sh), b: b, hedged: hedged}
		}()
	}
	launch(primary, false)
	inflight := 1
	var hedgeTimer <-chan time.Time
	if !c.cfg.DisableHedging && len(c.backends) > 1 {
		hedgeTimer = time.After(c.hedgeDelay())
	}
	var firstErr error
	for {
		select {
		case out := <-ch:
			inflight--
			if out.err == nil {
				c.noteOutcome(out.b, true)
				if out.hedged {
					c.m.hedgeWins.Inc()
				}
				return nil
			}
			if errors.Is(out.err, errDeterminism) {
				return out.err
			}
			if actx.Err() == nil {
				// A genuine backend failure, not our own cancellation.
				c.noteOutcome(out.b, false)
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if inflight == 0 {
				return firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if hb := c.pickBackend(sh.index, 0, primary); hb != nil {
				c.m.hedges.Inc()
				launch(hb, true)
				inflight++
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// hedgeDelay is how long a shard may go unanswered before it is hedged:
// the configured delay, or adaptively twice the observed p95 shard wall
// time, clamped to [200ms, 5s] (with no observations yet the floor
// applies — early traffic should not hedge on pure guesswork).
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	d := time.Duration(2 * c.m.shardSeconds.Quantile(0.95) * float64(time.Second))
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// failoverDelay is the jittered exponential backoff between shard
// attempts (the submission-level Retry-After/backoff dance lives in the
// client underneath).
func failoverDelay(attempt int) time.Duration {
	d := 100 * time.Millisecond << uint(attempt-1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// tryShard performs one shard attempt against one backend: submit the
// sub-request (the shard's global range, stage deltas always on — the
// merger needs them, and the remaining deadline budget when the job has
// one), stream every event into the shard buffer, and verify the backend
// delivered the complete, uncanceled, well-formed range. Every event and
// the terminal result are integrity-checked (api.ValidateEvent /
// ValidateResult), so a corrupt frame that survived JSON decoding is
// demoted to a retryable stream failure instead of reaching the merge.
func (c *Coordinator) tryShard(ctx context.Context, b *backend, req api.Request, sh *shard) error {
	start := time.Now()
	sub := req
	sub.ShotOffset = sh.rng.Lo
	sub.Shots = sh.rng.Hi - sh.rng.Lo
	sub.StreamStages = true
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return context.DeadlineExceeded
		}
		ms := int(remaining.Milliseconds())
		if ms < 1 {
			ms = 1
		}
		sub.DeadlineMs = ms
	}
	js, err := b.cl.Submit(ctx, sub)
	if err != nil {
		return fmt.Errorf("backend %d (%s): submit: %w", b.index, b.base, err)
	}
	st, err := b.cl.Stream(ctx, js.ID)
	if err != nil {
		return fmt.Errorf("backend %d (%s): stream: %w", b.index, b.base, err)
	}
	defer st.Close()
	n := 0
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("backend %d (%s): stream: %w", b.index, b.base, err)
		}
		if ev.Shot != sh.rng.Lo+n {
			return fmt.Errorf("backend %d (%s): event %d carries shot %d, want %d", b.index, b.base, n, ev.Shot, sh.rng.Lo+n)
		}
		if verr := api.ValidateEvent(ev); verr != nil {
			return fmt.Errorf("backend %d (%s): corrupt event: %w", b.index, b.base, verr)
		}
		if oerr := sh.offer(n, ev); oerr != nil {
			return oerr
		}
		n++
	}
	end := st.End()
	if end == nil || end.State != api.StateDone || end.Result == nil {
		state, msg := "", ""
		if end != nil {
			state, msg = end.State, end.Error
		}
		return fmt.Errorf("backend %d (%s): shard ended %s: %s", b.index, b.base, state, msg)
	}
	if verr := api.ValidateResult(end.Result); verr != nil {
		return fmt.Errorf("backend %d (%s): corrupt result: %w", b.index, b.base, verr)
	}
	if end.Result.Canceled || n != sub.Shots {
		// A draining backend returns a truncated prefix — valid for its
		// own clients, but a missing tail for ours: fail over.
		return fmt.Errorf("backend %d (%s): shard truncated at %d of %d shots (backend draining?)", b.index, b.base, n, sub.Shots)
	}
	elapsed := time.Since(start).Seconds()
	b.shardSeconds.Observe(elapsed)
	c.m.shardSeconds.Observe(elapsed)
	b.observe(elapsed)
	b.shardsServed.Inc()
	return nil
}

// gather is the merge path: consume shard buffers strictly in shard
// order (global shot order), decode every event, and emit it. One
// goroutine, exactly like the single-node engine's merge path — which is
// why the server's fold reproduces the single-node result bit-for-bit.
// After a shard's last event it waits for the shard's terminal record:
// the range must not settle (and cancel the shard streams) before every
// shard's attempt has been recorded against its backend.
func gather(ctx context.Context, shards []*shard, emit func(artery.ShotUpdate)) (canceled bool, err error) {
	for _, sh := range shards {
		size := sh.rng.Hi - sh.rng.Lo
		for consumed := 0; ; {
			if ctx.Err() != nil {
				return true, nil
			}
			sh.mu.Lock()
			if idx := consumed - sh.base; consumed < size && idx >= 0 && idx < len(sh.events) {
				ev := sh.events[idx]
				// Trim the merged prefix; append's reallocations drop the
				// dead head, so the buffer holds only the unmerged window.
				sh.events = sh.events[idx+1:]
				sh.base = consumed + 1
				sh.mu.Unlock()
				consumed++
				u, err := api.ShotFrom(ev)
				if err != nil {
					return false, err
				}
				emit(u)
				continue
			}
			if consumed == size && sh.done {
				sh.mu.Unlock()
				break
			}
			if err := sh.err; err != nil {
				sh.mu.Unlock()
				if err == context.Canceled || ctx.Err() != nil {
					return true, nil
				}
				return false, err
			}
			wait := sh.notify
			sh.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
			}
		}
	}
	return false, nil
}
