// Package cluster is the scatter-gather coordinator for multi-node
// arteryd: it serves the same /v1/jobs API as a single arteryd, through an
// embedded internal/server.Server whose shot source it replaces. The
// source splits the range it is asked for into contiguous shards,
// dispatches every shard to one of N backend arteryd nodes as a
// shot-offset job (api.Request.ShotOffset), and emits the returned
// per-shot events in global shot order. The server folds, journals,
// streams and settles the job, exactly as for local shots.
//
// Because per-shot RNG streams are drawn by global index (prefix-stable
// stats.RNG.SplitN) and every aggregate in a result is a replayable fold
// over the per-shot event stream, the merged result is byte-identical to
// the same request run on a single node — at any shard count, any
// per-node worker budget, and any co-tenancy on the backends.
//
// The same determinism underwrites the resilience layer (see
// DESIGN.md's Resilience section):
//
//   - Failover: a re-dispatched shard reproduces the exact event prefix
//     the dead backend already delivered, so the merger resumes
//     mid-shard with only its consumed-event cursor.
//   - Hedging: a shard stuck behind a straggler is speculatively
//     re-dispatched after a latency-percentile delay; because both
//     attempts must produce identical bytes, the first terminal answer
//     wins without changing output — and the shard buffer asserts the
//     identity on every overlapping event, failing the job loudly if a
//     backend ever disagrees with itself.
//   - Circuit breakers: per-backend trip/recover hysteresis (modeled on
//     fault.Tracker) keeps shard placement away from flapping nodes
//     without a human in the loop.
//   - Deadlines: api.Request.DeadlineMs propagates into every shard
//     sub-request with the remaining budget, so one slow shard cannot
//     hold a deadline-bound job past its promise.
//   - Overload shedding: while zero backends are healthy the
//     coordinator's /readyz reports not-ready and submissions shed with
//     a 503 instead of queueing jobs that cannot run.
package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"artery/client"
	"artery/internal/server"
	"artery/internal/store"
	"artery/internal/trace"
)

// Config sizes the coordinator. Zero values select the documented
// defaults; Backends is required.
type Config struct {
	// Backends are the base URLs of the arteryd nodes shards run on
	// (e.g. "http://10.0.0.1:7717"). At least one is required; URLs are
	// validated at construction.
	Backends []string
	// Shards is the number of contiguous shot ranges a job is split into
	// (default: one per backend). Jobs with fewer shots than shards get
	// one shard per shot.
	Shards int
	// ShardAttempts bounds how many times one shard is dispatched before
	// the whole job fails: the first attempt plus failovers (default 3).
	// Hedge attempts do not consume the budget — a hedge is a speculative
	// duplicate, not a retry.
	ShardAttempts int
	// HealthTimeout bounds one /readyz probe (default and cap: 9/10 of
	// the 250ms polling period). A probe outliving its period would pile
	// up requests against the very node that is struggling.
	HealthTimeout time.Duration
	// DisableHedging turns speculative shard duplication off. With
	// hedging on (the default), a shard still unanswered after
	// HedgeDelay is re-dispatched to a different healthy backend and the
	// first terminal answer wins — safe because both attempts must
	// deliver identical bytes (asserted per event).
	DisableHedging bool
	// HedgeDelay is the wait before hedging a shard (default adaptive:
	// 2× the observed p95 shard wall time, clamped to [200ms, 5s]).
	HedgeDelay time.Duration
	// QueueDepth, MaxConcurrentJobs and MaxShots size the embedded
	// admission server exactly as in server.Config.
	QueueDepth        int
	MaxConcurrentJobs int
	MaxShots          int
	// ClientOptions configures each backend's client (timeouts, retry
	// budgets). The default keeps submission retries short so failover
	// moves to another node quickly. The coordinator always installs its
	// own retry hook (per-backend retry metrics) after these options.
	ClientOptions []client.Option
	// Store and CheckpointShots configure the embedded server's durable
	// job journal exactly as in server.Config: with a store, the
	// coordinator journals accepted jobs and merged events, serves
	// finished jobs from disk across restarts, and resumes interrupted
	// jobs by re-sharding only the range past the last durable merged
	// shot (see source).
	Store           *store.Store
	CheckpointShots int
}

// healthInterval is the backend /readyz polling period.
const healthInterval = 250 * time.Millisecond

// stragglerFactor declares a backend a straggler when its smoothed shard
// wall time exceeds the fleet's fastest by this factor; stragglers are
// deprioritized by shard placement while they lag, without being marked
// unhealthy.
const stragglerFactor = 2.5

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = len(c.Backends)
	}
	if c.ShardAttempts == 0 {
		c.ShardAttempts = 3
	}
	if c.HealthTimeout == 0 || c.HealthTimeout >= healthInterval {
		// Clamp below the polling period: a slow probe must fail before
		// the next one starts, or probes pile up against a sick node.
		c.HealthTimeout = healthInterval * 9 / 10
	}
	return c
}

// backend is one arteryd node: its client, its health flag (maintained
// by the poll loop), its circuit breaker, its straggler estimate and its
// per-backend instruments.
type backend struct {
	index   int
	base    string
	cl      *client.Client
	healthy atomic.Bool
	brk     *breaker

	// ewmaBits is the smoothed shard wall time (float64 seconds bits,
	// 0.8/0.2 EWMA) feeding straggler detection; ewmaN counts samples so
	// a cold backend is never judged.
	ewmaBits atomic.Uint64
	ewmaN    atomic.Int64

	shardSeconds *trace.Histogram
	shardsServed *trace.Counter
	attempts     *trace.Counter
	submitRetry  *trace.Counter
	retrySleepMs *trace.Counter
	brkState     *trace.Gauge
}

// observe folds one successful shard wall time into the straggler EWMA.
func (b *backend) observe(seconds float64) {
	for {
		old := b.ewmaBits.Load()
		prev := math.Float64frombits(old)
		next := seconds
		if b.ewmaN.Load() > 0 {
			next = 0.8*prev + 0.2*seconds
		}
		if b.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			b.ewmaN.Add(1)
			return
		}
	}
}

func (b *backend) ewma() (float64, int64) {
	return math.Float64frombits(b.ewmaBits.Load()), b.ewmaN.Load()
}

// metrics are the coordinator's shard-level instruments, registered on
// the embedded server's registry so /metrics exposes both.
type metrics struct {
	shardsDispatched *trace.Counter
	shardsRetried    *trace.Counter
	shardsFailedOver *trace.Counter
	shardsFailed     *trace.Counter
	hedges           *trace.Counter
	hedgeWins        *trace.Counter
	breakerTrips     *trace.Counter
	stragglerSkips   *trace.Counter
	backoffSleepMs   *trace.Counter
	backendsHealthy  *trace.Gauge
	breakersOpen     *trace.Gauge
	shardSeconds     *trace.Histogram
}

// Coordinator fronts a fleet of arteryd backends behind the single-node
// job API. Construct with New, attach Handler, call Start, Shutdown on
// SIGTERM.
type Coordinator struct {
	cfg      Config
	srv      *server.Server
	backends []*backend
	m        metrics
	healthHC *http.Client // one probe client shared by every health loop

	healthCtx    context.Context
	cancelHealth context.CancelFunc
	healthWG     sync.WaitGroup
}

// New builds a coordinator over the configured backends. Backend URLs
// are validated here; the coordinator's own admission server enforces
// the same request validation as a single node.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg}
	c.healthHC = &http.Client{Timeout: cfg.HealthTimeout}
	c.srv = server.New(server.Config{
		QueueDepth:        cfg.QueueDepth,
		MaxConcurrentJobs: cfg.MaxConcurrentJobs,
		MaxShots:          cfg.MaxShots,
		Source:            c.source,
		Store:             cfg.Store,
		CheckpointShots:   cfg.CheckpointShots,
		ReadyCheck:        c.fleetServes,
	})
	reg := c.srv.Registry()
	c.m = metrics{
		shardsDispatched: reg.Counter("artery_cluster_shards_dispatched_total", "shard dispatches to backends (including failovers and hedges)"),
		shardsRetried:    reg.Counter("artery_cluster_shards_retried_total", "shard dispatches after a failed attempt"),
		shardsFailedOver: reg.Counter("artery_cluster_shards_failed_over_total", "shard retries that moved to a different backend"),
		shardsFailed:     reg.Counter("artery_cluster_shards_failed_total", "shards that exhausted their attempt budget"),
		hedges:           reg.Counter("artery_cluster_hedges_total", "speculative duplicate shard dispatches after the hedge delay"),
		hedgeWins:        reg.Counter("artery_cluster_hedge_wins_total", "shards whose hedge attempt finished first"),
		breakerTrips:     reg.Counter("artery_cluster_breaker_trips_total", "circuit-breaker transitions to open"),
		stragglerSkips:   reg.Counter("artery_cluster_straggler_skips_total", "placements that passed over a straggling backend"),
		backoffSleepMs:   reg.Counter("artery_cluster_backoff_sleep_ms_total", "milliseconds slept in failover backoff between shard attempts"),
		backendsHealthy:  reg.Gauge("artery_cluster_backends_healthy", "backends currently passing /readyz"),
		breakersOpen:     reg.Gauge("artery_cluster_breakers_open", "backends with an open circuit breaker"),
		shardSeconds:     reg.Histogram("artery_cluster_shard_seconds", "shard wall time across all backends (hedge-delay source)", trace.DefaultJobSecondsBuckets()),
	}
	for i, base := range cfg.Backends {
		b := &backend{
			index:        i,
			brk:          newBreaker(),
			shardSeconds: reg.Histogram(fmt.Sprintf("artery_cluster_backend%d_shard_seconds", i), fmt.Sprintf("shard wall time on backend %d (%s)", i, base), trace.DefaultJobSecondsBuckets()),
			shardsServed: reg.Counter(fmt.Sprintf("artery_cluster_backend%d_shards_total", i), fmt.Sprintf("shards completed by backend %d (%s)", i, base)),
			attempts:     reg.Counter(fmt.Sprintf("artery_cluster_backend%d_attempts_total", i), fmt.Sprintf("shard attempts dispatched to backend %d (%s)", i, base)),
			submitRetry:  reg.Counter(fmt.Sprintf("artery_cluster_backend%d_submit_retries_total", i), fmt.Sprintf("submission-level retries against backend %d (%s)", i, base)),
			retrySleepMs: reg.Counter(fmt.Sprintf("artery_cluster_backend%d_retry_sleep_ms_total", i), fmt.Sprintf("milliseconds slept in submission backoff against backend %d (%s)", i, base)),
			brkState:     reg.Gauge(fmt.Sprintf("artery_cluster_breaker_state_backend%d", i), fmt.Sprintf("breaker state of backend %d (%s): 0 closed, 1 half-open, 2 open", i, base)),
		}
		opts := append([]client.Option{
			client.WithRetries(2),
			client.WithBackoff(50*time.Millisecond, time.Second),
			client.WithRetryAfterCap(2 * time.Second),
		}, cfg.ClientOptions...)
		// The metrics hook goes last so caller options cannot displace it.
		opts = append(opts, client.WithRetryHook(func(info client.RetryInfo) {
			b.submitRetry.Inc()
			b.retrySleepMs.Add(info.Delay.Milliseconds())
		}))
		cl, err := client.New(base, opts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %d: %w", i, err)
		}
		b.cl = cl
		b.base = cl.Base()
		b.healthy.Store(true) // optimistic until the first poll
		c.backends = append(c.backends, b)
	}
	c.m.backendsHealthy.Set(float64(len(c.backends)))
	c.healthCtx, c.cancelHealth = context.WithCancel(context.Background())
	return c, nil
}

// Handler returns the coordinator's HTTP handler — the same routes as a
// single arteryd (jobs, streams, metrics, healthz, readyz).
func (c *Coordinator) Handler() http.Handler { return c.srv.Handler() }

// Registry exposes the metrics registry (server + cluster instruments).
func (c *Coordinator) Registry() *trace.Registry { return c.srv.Registry() }

// Start launches the dispatcher pool and the backend health loops.
func (c *Coordinator) Start() {
	c.srv.Start()
	for _, b := range c.backends {
		c.healthWG.Add(1)
		go c.healthLoop(b)
	}
}

// Shutdown drains the coordinator: admission stops, in-flight jobs are
// canceled (completing with their deterministic merged prefix), and the
// health loops exit.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.cancelHealth()
	err := c.srv.Shutdown(ctx)
	c.healthWG.Wait()
	return err
}

// fleetServes is the coordinator's readiness predicate and admission
// gate: with zero healthy backends there is nothing to scatter onto, so
// /readyz reports not-ready (load balancers drain) and submissions shed
// with a 503 instead of queueing jobs that cannot run.
func (c *Coordinator) fleetServes() error {
	if c.healthyCount() == 0 {
		return fmt.Errorf("no healthy backends (0 of %d passing /readyz)", len(c.backends))
	}
	return nil
}

// healthLoop polls one backend's /readyz, flipping its health flag. An
// unhealthy backend is skipped by shard placement until it recovers. The
// first probe fires immediately — readiness truth should not wait a full
// polling period after boot.
func (c *Coordinator) healthLoop(b *backend) {
	defer c.healthWG.Done()
	t := time.NewTicker(healthInterval)
	defer t.Stop()
	for {
		c.probe(b)
		select {
		case <-c.healthCtx.Done():
			return
		case <-t.C:
		}
	}
}

// probe performs one /readyz check against a backend, using the shared
// probe client (one idle pool for the whole fleet, not one per loop).
func (c *Coordinator) probe(b *backend) {
	req, err := http.NewRequestWithContext(c.healthCtx, http.MethodGet, b.base+"/readyz", nil)
	if err != nil {
		return
	}
	ok := false
	if resp, err := c.healthHC.Do(req); err == nil {
		ok = resp.StatusCode == http.StatusOK
		resp.Body.Close()
	}
	if b.healthy.Swap(ok) != ok {
		c.m.backendsHealthy.Set(float64(c.healthyCount()))
	}
}

func (c *Coordinator) healthyCount() int {
	n := 0
	for _, b := range c.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// noteOutcome records an attempt outcome into a backend's breaker and
// refreshes the breaker gauges.
func (c *Coordinator) noteOutcome(b *backend, ok bool) {
	if b.brk.record(ok) {
		c.m.breakerTrips.Inc()
	}
	c.refreshBreakerGauges()
}

func (c *Coordinator) refreshBreakerGauges() {
	open := 0
	for _, b := range c.backends {
		st := b.brk.current()
		b.brkState.Set(float64(st))
		if st == breakerOpen {
			open++
		}
	}
	c.m.breakersOpen.Set(float64(open))
}

// straggling reports whether a backend's smoothed shard wall time lags
// the fleet's fastest by the straggler factor. Judged only with at least
// two samples on both sides, and only for gaps above 50ms — at
// microbenchmark latencies the factor would trip on noise.
func (c *Coordinator) straggling(b *backend) bool {
	mine, n := b.ewma()
	if n < 2 {
		return false
	}
	best := math.Inf(1)
	for _, o := range c.backends {
		if o == b {
			continue
		}
		e, on := o.ewma()
		if on >= 2 && e < best {
			best = e
		}
	}
	if math.IsInf(best, 1) {
		return false
	}
	return mine > stragglerFactor*best && mine > best+0.05
}

// pickBackend places a shard attempt: shards start round-robin by index
// and each failover advances to the next backend. Placement prefers
// healthy, breaker-admitted, non-straggling nodes; failing that it drops
// the straggler veto, and as a last resort returns the nominal backend
// anyway (the poll may lag a recovery) — except for hedge placement
// (exclude != nil), which returns nil rather than hedge onto a node
// that is down, tripped, or the primary itself: a hedge is an
// optimization, not a right.
func (c *Coordinator) pickBackend(shardIdx, attempt int, exclude *backend) *backend {
	n := len(c.backends)
	start := (shardIdx + attempt) % n
	var fallback *backend
	for off := 0; off < n; off++ {
		b := c.backends[(start+off)%n]
		if b == exclude || !b.healthy.Load() || !b.brk.allow() {
			continue
		}
		if c.straggling(b) {
			c.m.stragglerSkips.Inc()
			if fallback == nil {
				fallback = b
			}
			continue
		}
		return b
	}
	if fallback != nil {
		return fallback
	}
	if exclude != nil {
		return nil
	}
	return c.backends[start]
}
