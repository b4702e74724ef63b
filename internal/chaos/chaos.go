// Package chaos is the deterministic network-fault injector for the
// service tier: the counterpart of internal/fault (which degrades the
// simulated device) aimed at the wires between a client, a coordinator
// and its arteryd backends. It injects the degraded networking a
// production control stack must survive — added latency, connection
// resets, blackhole partitions, truncated bodies, corrupt frames,
// slow-loris streams and 5xx storms — through one shape, a TCP Proxy
// that sits in front of a target and degrades the links through it. The
// same proxy serves in-process tests (one per backend, in front of an
// httptest server) and smoke tests that place real processes behind
// real degraded links (artery-bench -chaos-proxy).
//
// Determinism contract: every fault decision flows from one seed through
// per-connection stats.RNG streams derived exactly like stats.RNG.SplitN
// derives the engine's per-shot streams — the i-th connection's stream is
// seeded from the root generator's i-th output, so it depends only on the
// seed and the connection index, never on timing. Replaying a scenario
// with the same seed and the same connection arrival order replays the
// identical fault schedule. Every channel draws its gate and parameters at
// fixed positions in the stream whether or not it is enabled, so turning
// one fault class on or off never shifts another's schedule.
//
// Detectability: corrupt frames always set the high bit of the byte they
// flip. In the ASCII JSON the service speaks, such a flip is always
// detectable downstream — a parse error outside strings, or a U+FFFD
// replacement rune inside them — modeling the residual errors of a
// checksummed transport without ever aliasing into a different valid
// event (which no retry discipline could catch).
package chaos

import (
	"fmt"
	"sync"
	"time"

	"artery/internal/stats"
	"artery/internal/trace"
)

// Config sets the per-connection fault rates and shapes. The zero value
// injects nothing; Seed 0 selects seed 1.
type Config struct {
	// Seed drives every fault decision (see the package determinism
	// contract).
	Seed uint64

	// LatencyRate is the probability that a connection gets extra latency
	// drawn uniformly from [LatencyMin, LatencyMax] (defaults 10–200ms)
	// before it is serviced. Latency composes with the other channels.
	LatencyRate float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration

	// Error5xxRate is the probability that a connection is answered with a
	// synthetic 503 instead of reaching the target (a 5xx storm when the
	// rate is high).
	Error5xxRate float64

	// BlackholeRate is the probability that a connection is blackholed: it
	// is accepted but nothing is ever answered for BlackholeHold (default
	// 2s), after which it is reset — a partition that heals.
	BlackholeRate float64
	BlackholeHold time.Duration

	// ResetRate is the probability that a connection is reset before any
	// byte of response reaches the client.
	ResetRate float64

	// TruncateRate is the probability that the response stream is cut
	// after a byte budget drawn from [TruncateMin, TruncateMax] (defaults
	// 64–4096), then reset — a mid-line NDJSON kill.
	TruncateRate float64
	TruncateMin  int
	TruncateMax  int

	// CorruptRate is the probability that one response byte (at an offset
	// drawn from [0, CorruptSpan), default 2048) is flipped with the high
	// bit set (see the package detectability note).
	CorruptRate float64
	CorruptSpan int

	// SlowLorisRate is the probability that the response dribbles out in
	// SlowChunk-byte pieces (default 64) with SlowDelay between them
	// (default 20ms).
	SlowLorisRate float64
	SlowChunk     int
	SlowDelay     time.Duration

	// Registry, when non-nil, receives the artery_chaos_* instruments.
	Registry *trace.Registry
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LatencyMin == 0 {
		c.LatencyMin = 10 * time.Millisecond
	}
	if c.LatencyMax == 0 {
		c.LatencyMax = 200 * time.Millisecond
	}
	if c.BlackholeHold == 0 {
		c.BlackholeHold = 2 * time.Second
	}
	if c.TruncateMin == 0 {
		c.TruncateMin = 64
	}
	if c.TruncateMax == 0 {
		c.TruncateMax = 4096
	}
	if c.CorruptSpan == 0 {
		c.CorruptSpan = 2048
	}
	if c.SlowChunk == 0 {
		c.SlowChunk = 64
	}
	if c.SlowDelay == 0 {
		c.SlowDelay = 20 * time.Millisecond
	}
	return c
}

// Validate rejects rates outside [0, 1] and inverted ranges.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LatencyRate", c.LatencyRate},
		{"Error5xxRate", c.Error5xxRate},
		{"BlackholeRate", c.BlackholeRate},
		{"ResetRate", c.ResetRate},
		{"TruncateRate", c.TruncateRate},
		{"CorruptRate", c.CorruptRate},
		{"SlowLorisRate", c.SlowLorisRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.LatencyMin > c.LatencyMax {
		return fmt.Errorf("chaos: LatencyMin %v > LatencyMax %v", c.LatencyMin, c.LatencyMax)
	}
	if c.TruncateMin > c.TruncateMax {
		return fmt.Errorf("chaos: TruncateMin %d > TruncateMax %d", c.TruncateMin, c.TruncateMax)
	}
	if c.TruncateMin < 1 {
		return fmt.Errorf("chaos: TruncateMin must be >= 1, got %d", c.TruncateMin)
	}
	return nil
}

// Scaled sets every fault rate from one sweep knob, mirroring
// fault.Scaled: resets, truncations, corruption and 5xx at rate,
// slow-loris at rate/2, blackholes at rate/4 (they cost the most wall
// clock), and latency on twice as often as the destructive faults.
func Scaled(seed uint64, rate float64) Config {
	lat := 2 * rate
	if lat > 1 {
		lat = 1
	}
	return Config{
		Seed:          seed,
		LatencyRate:   lat,
		Error5xxRate:  rate,
		ResetRate:     rate,
		TruncateRate:  rate,
		CorruptRate:   rate,
		SlowLorisRate: rate / 2,
		BlackholeRate: rate / 4,
		BlackholeHold: time.Second,
	}
}

// streams derives per-connection RNG streams lazily but with SplitN
// semantics: the i-th child is seeded from the root's i-th output, so
// child i depends only on (seed, i). The same stream object is returned
// for every at(i) call — a connection owns its stream and draws from it
// sequentially.
type streams struct {
	mu   sync.Mutex
	root *stats.RNG
	kids []*stats.RNG
}

func newStreams(seed uint64) *streams {
	return &streams{root: stats.NewRNG(seed)}
}

func (s *streams) at(i int) *stats.RNG {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.kids) <= i {
		s.kids = append(s.kids, s.root.Split())
	}
	return s.kids[i]
}

// plan is one connection's fault schedule, drawn up front from its
// stream: optional added latency plus at most one destructive fault.
type plan struct {
	delay       time.Duration
	storm       bool
	blackhole   bool
	reset       bool
	truncateAt  int // -1 = no truncation
	corruptAt   int // -1 = no corruption
	corruptMask byte
	slow        bool
}

// planFor draws a connection's plan. Every channel draws its gate and
// parameters at fixed stream positions whether or not it is enabled, so
// one channel's rate never shifts where another channel draws — turning a
// fault class on or off leaves the rest of the schedule untouched.
// Destructive-channel precedence: storm, blackhole, reset, truncate,
// corrupt, slow-loris; at most one destructive fault wins.
func planFor(cfg Config, rng *stats.RNG) plan {
	p := plan{truncateAt: -1, corruptAt: -1}
	latGate := rng.Bool(cfg.LatencyRate)
	latDelay := cfg.LatencyMin + time.Duration(rng.Float64()*float64(cfg.LatencyMax-cfg.LatencyMin))
	if latGate {
		p.delay = latDelay
	}
	storm := rng.Bool(cfg.Error5xxRate)
	blackhole := rng.Bool(cfg.BlackholeRate)
	reset := rng.Bool(cfg.ResetRate)
	truncate := rng.Bool(cfg.TruncateRate)
	truncateAt := cfg.TruncateMin + rng.Intn(cfg.TruncateMax-cfg.TruncateMin+1)
	corrupt := rng.Bool(cfg.CorruptRate)
	corruptAt := rng.Intn(cfg.CorruptSpan)
	corruptMask := 0x80 | byte(rng.Intn(128)) // high bit: always detectable
	slow := rng.Bool(cfg.SlowLorisRate)
	switch {
	case storm:
		p.storm = true
	case blackhole:
		p.blackhole = true
	case reset:
		p.reset = true
	case truncate:
		p.truncateAt = truncateAt
	case corrupt:
		p.corruptAt = corruptAt
		p.corruptMask = corruptMask
	case slow:
		p.slow = true
	}
	return p
}

// destructive reports whether the plan carries a destructive fault (used
// by the fault counters; latency-only plans count separately).
func (p plan) destructive() bool {
	return p.storm || p.blackhole || p.reset || p.truncateAt >= 0 || p.corruptAt >= 0 || p.slow
}

// metrics are the artery_chaos_* instruments. All fields are nil-safe
// (trace instruments on a nil registry are nil), so injection sites
// update them unconditionally.
type metrics struct {
	connections *trace.Counter
	faults      *trace.Counter
	latencies   *trace.Counter
	storms      *trace.Counter
	blackholes  *trace.Counter
	resets      *trace.Counter
	truncates   *trace.Counter
	corrupts    *trace.Counter
	slowloris   *trace.Counter
}

func newMetrics(reg *trace.Registry) metrics {
	return metrics{
		connections: reg.Counter("artery_chaos_connections_total", "connections seen by the chaos injector"),
		faults:      reg.Counter("artery_chaos_faults_total", "connections given a destructive fault"),
		latencies:   reg.Counter("artery_chaos_latency_injections_total", "connections given added latency"),
		storms:      reg.Counter("artery_chaos_storms_total", "connections answered with a synthetic 503"),
		blackholes:  reg.Counter("artery_chaos_blackholes_total", "connections blackholed (held, then reset)"),
		resets:      reg.Counter("artery_chaos_resets_total", "connections reset before any response byte"),
		truncates:   reg.Counter("artery_chaos_truncates_total", "responses truncated mid-stream"),
		corrupts:    reg.Counter("artery_chaos_corrupts_total", "responses with a flipped byte"),
		slowloris:   reg.Counter("artery_chaos_slowloris_total", "responses dribbled out slow-loris style"),
	}
}

// record updates the counters for one planned connection.
func (m metrics) record(p plan) {
	m.connections.Inc()
	if p.delay > 0 {
		m.latencies.Inc()
	}
	if p.destructive() {
		m.faults.Inc()
	}
	switch {
	case p.storm:
		m.storms.Inc()
	case p.blackhole:
		m.blackholes.Inc()
	case p.reset:
		m.resets.Inc()
	case p.truncateAt >= 0:
		m.truncates.Inc()
	case p.corruptAt >= 0:
		m.corrupts.Inc()
	case p.slow:
		m.slowloris.Inc()
	}
}
