// Package core is ARTERY's primary contribution assembled into an
// executable feedback engine: it takes a feedback workload, classifies its
// feedback sites with the Figure-3 pre-execution analysis, drives each
// shot's readout pulses through a feedback controller (ARTERY or one of
// the baselines), applies latency-dependent decoherence to a Monte-Carlo
// state-vector simulation, and reports the latency / prediction-accuracy /
// fidelity statistics the paper's evaluation tables and figures are built
// from.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"artery/internal/circuit"
	"artery/internal/controller"
	"artery/internal/fault"
	"artery/internal/quantum"
	"artery/internal/readout"
	"artery/internal/stabilizer"
	"artery/internal/stats"
	"artery/internal/trace"
	"artery/internal/workload"
)

// maxSimQubits bounds the state-vector fidelity simulation (a 16-qubit
// register is already 1 MiB of amplitudes per state).
const maxSimQubits = 16

// Engine executes feedback workloads against one controller.
//
// Concurrency contract (see DESIGN.md, "Concurrency model"): during Run,
// Channel (calibration, classifier, state table) and Noise are read-only
// and shared by all shot workers; do not retrain or retune them while a
// run is in flight. The controller is invoked concurrently only when it
// declares itself controller.ShotSafe; otherwise every Feedback call is
// made from a single goroutine in shot order.
type Engine struct {
	Ctrl    controller.Controller
	Channel *readout.Channel
	Noise   *quantum.NoiseModel
	// SimulateState enables the per-shot state-vector fidelity simulation
	// (skip for latency-only sweeps or registers too wide to simulate).
	SimulateState bool
	// EnableDD executes feedback idle windows as X-echo (dynamical
	// decoupling) sequences, refocusing the noise model's quasi-static
	// dephasing — the paper applies DD to idle qubits in its QEC
	// experiment (§6.2).
	EnableDD bool
	// Workers bounds Run's shot-level parallelism: 0 (the default) uses
	// GOMAXPROCS workers, 1 forces serial execution. Results are
	// bit-identical at every setting — Run derives one RNG stream per shot
	// index up front and merges shot results in index order, so neither the
	// random streams nor the aggregate arithmetic depend on scheduling.
	Workers int
	// Faults, when non-nil and enabled, injects deterministic faults into
	// every shot: Run derives one fault stream per shot index (a second
	// SplitN, so the physics streams — and hence unfaulted numbers — are
	// untouched) and threads a per-shot fault.Session through the readout
	// capture and the controller. Faulted runs stay bit-identical at any
	// Workers setting: a session is only ever used by its own shot, worker
	// phase strictly before merge phase.
	Faults *fault.Injector
	// Trace, when non-nil, records typed span events for every shot:
	// readout classification, per-window posterior evolution, interconnect
	// hops, and the per-stage latency partition of every feedback outcome.
	// Workers record into private per-shot buffers that are committed on
	// the in-order merge path, so the event stream is bit-identical at any
	// Workers setting; a nil recorder reduces every hook to a nil check
	// and leaves RunResult byte-identical to an uninstrumented run.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters and latency histograms
	// (artery_shots_total, artery_shot_latency_ns, ...). All updates happen
	// on the merge path in shot order.
	Metrics *trace.Registry
	// OnShot, when non-nil, is invoked for every merged shot with its
	// 0-based shot index and result. Calls happen on the single merge
	// goroutine, strictly in shot order, after the shot's aggregates are
	// folded into the run — so the callback's view is bit-identical at any
	// Workers setting. The callback must not block: the in-order merge path
	// stalls until it returns.
	OnShot func(shot int, sr ShotResult)
	// Backend selects the simulation backend (state vector vs stabilizer
	// tableau) for circuits the engine simulates; the zero value
	// (quantum.BackendAuto) preserves historical behavior and promotes
	// only circuits too wide for any state vector. See backend.go.
	Backend quantum.BackendKind
	// RecordMeasurements captures every physical measurement outcome
	// (measure, reset and feedback-site readouts, in execution order)
	// into ShotResult.Measurements on simulated paths. Off by default:
	// the capture allocates per shot, and the hot path is allocation-free.
	RecordMeasurements bool

	// mu guards the lazily built caches below (Run may be entered from
	// multiple goroutines, and shot workers share the pools).
	mu sync.Mutex
	// plans caches the per-circuit compilation — the pure pre-execution
	// analysis plus the flattened op tape — so a multi-shot run classifies
	// and compiles its circuit exactly once instead of once per shot.
	// Circuits are treated as immutable once executed.
	plans map[*circuit.Circuit]*circuitPlan
	// pools recycles state-vector buffers per register width across shots.
	pools map[int]*quantum.StatePool
	// tabPools recycles stabilizer tableaus per register width.
	tabPools map[int]*stabilizer.Pool
}

// circuitPlan is everything the engine precomputes per circuit: the
// Figure-3 site analyses, the compiled op tape, and the tape's feedback ops
// indexed by site ordinal (for the pipeline path, which iterates sites
// without walking ops).
type circuitPlan struct {
	analyses []*circuit.SiteAnalysis
	tape     *circuit.Tape
	siteOps  []*circuit.TapeOp
}

// NewEngine builds an engine; Noise defaults to the calibrated device model.
func NewEngine(ctrl controller.Controller, ch *readout.Channel, noise *quantum.NoiseModel) *Engine {
	if noise == nil {
		noise = quantum.DeviceNoise()
	}
	return &Engine{Ctrl: ctrl, Channel: ch, Noise: noise, SimulateState: true}
}

// planFor returns (computing and caching on first use) the compiled plan —
// pre-execution analyses plus op tape — of circuit c.
func (e *Engine) planFor(c *circuit.Circuit) *circuitPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plans == nil {
		e.plans = map[*circuit.Circuit]*circuitPlan{}
	}
	if p, ok := e.plans[c]; ok {
		return p
	}
	p := &circuitPlan{analyses: circuit.AnalyzeAll(c), tape: circuit.Compile(c)}
	p.siteOps = make([]*circuit.TapeOp, 0, p.tape.NumSites)
	for i := range p.tape.Ops {
		if p.tape.Ops[i].Kind == circuit.TapeFeedback {
			p.siteOps = append(p.siteOps, &p.tape.Ops[i])
		}
	}
	return p
}

// siteBits returns a shot's window-bit backing for the given number of
// feedback sites: readSite gives each site its own region, so every
// record of the shot stays valid for as long as the shot's results do.
func (e *Engine) siteBits(sites int) []int {
	return make([]int, sites*e.Channel.Windows())
}

// readSite captures feedback site i's readout of a qubit in state into
// the site's region of the shot's bit backing.
func (e *Engine) readSite(bits []int, i, state int, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan) readout.Record {
	n := e.Channel.Windows()
	// Full-capacity three-index sub-slice: a site appends exactly n bits.
	return e.Channel.Read(state, rng, sess, span, bits[i*n:i*n:(i+1)*n])
}

// statePool returns the engine's shared state-vector pool for n qubits.
func (e *Engine) statePool(n int) *quantum.StatePool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pools == nil {
		e.pools = map[int]*quantum.StatePool{}
	}
	p, ok := e.pools[n]
	if !ok {
		p = quantum.NewStatePool(n)
		e.pools[n] = p
	}
	return p
}

// workerCount resolves the effective worker-pool size.
func (e *Engine) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctrlShotSafe reports whether the controller may be called concurrently
// from shot workers.
func (e *Engine) ctrlShotSafe() bool {
	s, ok := e.Ctrl.(controller.ShotSafe)
	return ok && s.ShotSafe()
}

// ShotResult summarizes one executed shot.
type ShotResult struct {
	// FeedbackLatencyNs is the summed feedback latency over all sites plus
	// the workload's gate payload.
	FeedbackLatencyNs float64
	// Outcomes holds the per-site controller outcomes.
	Outcomes []controller.Outcome
	// Fidelity is |⟨ideal|noisy⟩|² at circuit end (NaN when state
	// simulation is disabled or the ideal branch became unreachable).
	Fidelity float64
	// Faults snapshots the shot's fault/retry/fallback counters (zero when
	// the engine runs fault-free).
	Faults fault.Counters
	// Measurements holds the shot's physical measurement outcomes in
	// execution order (measure, reset, feedback-site readouts), captured
	// only when Engine.RecordMeasurements is set on a simulated path.
	// The record is backend-independent: a Clifford workload yields the
	// identical sequence on the state-vector and stabilizer backends.
	Measurements []int
}

// StageLatency is one row of the per-stage latency breakdown table: how
// often a pipeline stage occurred across the run's feedback outcomes and
// how many nanoseconds it consumed. Stage names follow trace.Stage. The
// JSON tags are the wire form of a job result's and an exported table's
// stage rows.
type StageLatency struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	TotalNs float64 `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// RunResult aggregates a workload run.
type RunResult struct {
	Workload   string
	Controller string
	// Shots is the number of shots executed and merged. It equals the
	// requested shot count unless the run was canceled mid-sweep.
	Shots int
	// MeanLatencyNs is the average per-shot summed feedback latency.
	MeanLatencyNs float64
	// Accuracy is the fraction of committed predictions that were correct
	// (1.0 for non-predictive baselines, which never commit).
	Accuracy float64
	// CommitRate is the fraction of feedback executions that committed a
	// prediction before readout end.
	CommitRate float64
	// MeanFidelity averages shot fidelities (NaN without state simulation).
	MeanFidelity float64
	// MeanDecisionNs is the mean per-site feedback latency.
	MeanDecisionNs float64
	// Latencies holds each shot's total feedback latency (for quantiles).
	Latencies []float64
	// Faults aggregates the per-shot fault/retry/fallback counters.
	Faults fault.Counters
	// FallbackRate is the fraction of feedback executions served on the
	// degraded blocking path (0 for fault-free runs).
	FallbackRate float64
	// Stages is the per-stage latency breakdown over all feedback
	// outcomes, in pipeline order (stages that never occurred are
	// omitted). It is derived from the controllers' latency partitions on
	// the merge path, so it is populated whether or not tracing is on and
	// is bit-identical at any Workers setting.
	Stages []StageLatency
	// Canceled reports that the run's context was canceled before all
	// requested shots executed; the aggregates then cover the Shots
	// merged shots.
	Canceled bool
}

// cancelBatch is the shot-batch granularity of context-cancellation
// checks: the merge path polls ctx.Err() once per batch, so a canceled
// context stops a sweep within cancelBatch merged shots.
const cancelBatch = 32

// metricSet holds the engine's pre-resolved instruments. With a nil
// Metrics registry every instrument is nil and every update reduces to a
// nil check.
type metricSet struct {
	shots, sites, commits, mispredicts, fallbacks *trace.Counter
	canceled                                      *trace.Counter
	shotLat, siteLat, decision                    *trace.Histogram
}

func (e *Engine) metricSet() metricSet {
	m := e.Metrics
	lat := trace.DefaultLatencyBucketsNs()
	return metricSet{
		shots:       m.Counter("artery_shots_total", "shots executed and merged"),
		sites:       m.Counter("artery_feedback_sites_total", "feedback site executions"),
		commits:     m.Counter("artery_commits_total", "predictions committed before readout end"),
		mispredicts: m.Counter("artery_mispredicts_total", "committed predictions that needed recovery"),
		fallbacks:   m.Counter("artery_fallbacks_total", "feedbacks served on the degraded blocking path"),
		canceled:    m.Counter("artery_runs_canceled_total", "runs stopped early by context cancellation"),
		shotLat:     m.Histogram("artery_shot_latency_ns", "per-shot summed feedback latency", lat),
		siteLat:     m.Histogram("artery_site_latency_ns", "per-site feedback latency", lat),
		decision:    m.Histogram("artery_decision_ns", "predictor time-to-threshold of committed feedbacks", lat),
	}
}

// Run executes the workload for the given number of shots.
//
// Shots run on a bounded worker pool (see Workers). Determinism: Run first
// derives one independent RNG stream per shot index from rng (consuming
// exactly shots draws), then picks an execution mode that never depends on
// worker count:
//
//   - sequential controller without state simulation (ARTERY latency
//     sweeps): workers run the per-shot physics — readout-pulse synthesis,
//     classification, trajectory windowing — while every controller
//     Feedback call stays on the in-order merge path, preserving the
//     paper's shot-by-shot Bayesian learning exactly.
//   - otherwise whole shots: a shot-safe controller's (the baselines')
//     shots execute concurrently, each a pure function of its own stream;
//     a sequential controller with state simulation feeds each feedback
//     decision's latency into the same shot's decoherence, coupling the
//     physics to the learned history, so its shots run in order on one
//     worker (still on per-shot streams).
//
// Shot results are merged in shot order in both modes, so RunResult —
// including the floating-point aggregation order — is bit-identical for
// any Workers setting. The same holds for the trace stream: shot spans are
// recorded by whichever goroutine runs the shot but committed in shot
// order on the merge path.
func (e *Engine) Run(wl *workload.Workload, shots int, rng *stats.RNG) RunResult {
	return e.run(nil, wl, 0, shots, rng)
}

// RunContext is Run with cooperative cancellation: the merge path checks
// ctx at shot-batch boundaries (every cancelBatch shots) and, when the
// context is canceled, stops the sweep, drains its workers and returns the
// aggregates over the shots merged so far with Canceled set. A canceled
// run's prefix is still deterministic — only its length depends on timing.
func (e *Engine) RunContext(ctx context.Context, wl *workload.Workload, shots int, rng *stats.RNG) RunResult {
	return e.run(ctx, wl, 0, shots, rng)
}

// RunRange executes the global shot range [offset, offset+shots) of a
// conceptually larger run: per-shot RNG streams are derived for GLOBAL
// shot indices (SplitN is prefix-stable — stream i of a SplitN(n) equals
// stream i of any SplitN(m), i < min(n, m)), so every shot of the range
// consumes exactly the random draws it would consume in a single full
// run. This is the primitive behind sharded multi-node execution: a
// coordinator may split a job's shots into contiguous ranges, run each
// range on a different machine, and recombine the per-shot records in
// index order into a result bit-identical to the unsharded run.
//
// Sequential controllers (ARTERY: per-site Bayesian histories, graceful-
// degradation tracking) learn shot-by-shot, so their state at shot offset
// depends on every earlier shot. RunRange reproduces that state exactly by
// replaying the warmup prefix [0, offset) through the controller — physics
// and Feedback calls run, but nothing is merged, streamed, traced or
// counted. Shot-safe controllers (the baselines) carry no cross-shot
// state, so their warmup is skipped entirely and a shard costs O(shots),
// not O(offset+shots). Either way the merged aggregates, OnShot callbacks
// (which receive global shot indices) and trace stream cover exactly the
// requested range and are bit-identical to the corresponding slice of a
// full run at any Workers setting.
//
// RunRange rejects fault injection: fault streams are split after the
// physics streams, so their global indexing depends on the total shot
// count, which a range does not know.
func (e *Engine) RunRange(ctx context.Context, wl *workload.Workload, offset, shots int, rng *stats.RNG) RunResult {
	return e.run(ctx, wl, offset, shots, rng)
}

// run is the shared implementation; a nil ctx (plain Run) skips every
// cancellation check, and a non-zero offset selects range execution (see
// RunRange).
func (e *Engine) run(ctx context.Context, wl *workload.Workload, offset, shots int, rng *stats.RNG) RunResult {
	if err := wl.Validate(); err != nil {
		panic(err)
	}
	if offset < 0 {
		panic(fmt.Sprintf("core: negative shot offset %d", offset))
	}
	if offset > 0 && e.Faults.Enabled() {
		panic("core: RunRange does not support fault injection (fault streams are derived after the physics streams, so their per-shot assignment depends on the run's total shot count)")
	}
	total := offset + shots
	plan := e.planFor(wl.Circuit)
	sk := e.simKindFor(plan, wl.Circuit)
	shotRNGs := rng.SplitN(total)
	// Fault streams are split AFTER the physics streams, so enabling the
	// injector never perturbs the per-shot physics, and a disabled injector
	// consumes nothing (fault-free runs are byte-identical to the past).
	var sessions []*fault.Session
	if e.Faults.Enabled() {
		sessions = make([]*fault.Session, total)
		for i, r := range rng.SplitN(total) {
			sessions[i] = e.Faults.Session(r)
		}
	}
	sessionOf := func(i int) *fault.Session {
		if sessions == nil {
			return nil
		}
		return sessions[i]
	}

	// The fold owns every aggregate the wire carries; the merge path keeps
	// only what no wire consumer reads (per-shot latencies, fault counters,
	// the per-site decision mean) and the metrics.
	ms := e.metricSet()
	var fold Fold
	var sum ShotSummary // one stage backing, reused: Add reads it only during the call
	var perSite stats.RunningMean
	var faults fault.Counters
	latencies := make([]float64, 0, shots)
	merge := func(sr ShotResult) {
		sum = summarize(sum.Stages, offset+fold.Shots(), wl.GatePayloadNs, sr)
		fold.Add(sum)
		latencies = append(latencies, sr.FeedbackLatencyNs)
		faults.Add(sr.Faults)
		ms.shots.Inc()
		ms.shotLat.Observe(sr.FeedbackLatencyNs)
		for _, o := range sr.Outcomes {
			perSite.Add(o.LatencyNs)
			ms.sites.Inc()
			ms.siteLat.Observe(o.LatencyNs)
			if o.FellBack {
				ms.fallbacks.Inc()
			}
			if o.Committed {
				ms.commits.Inc()
				ms.decision.Observe(o.Breakdown.DecisionNs)
				if !o.Correct {
					ms.mispredicts.Inc()
				}
			}
		}
		if e.OnShot != nil {
			e.OnShot(sum.Shot, sr)
		}
	}
	// canceled polls the context at shot-batch boundaries on the merge
	// path (nil ctx: never).
	canceled := func(mergedSoFar int) bool {
		if ctx == nil || mergedSoFar%cancelBatch != 0 {
			return false
		}
		return ctx.Err() != nil
	}

	workers := e.workerCount()
	shotSafe := e.ctrlShotSafe()
	if !shotSafe && sk == simNone {
		// Two-phase pipeline: the per-shot physics is independent of the
		// controller when no state is simulated, so workers capture the
		// readout records while the sequential controller runs on the
		// in-order merge path. A shot's fault session and trace span
		// are used first by its worker (IQ glitches, classification events)
		// and then by the merge path (controller faults and stage spans);
		// the pipeline's reorder buffer guarantees the worker phase
		// happens-before the merge phase of the same shot.
		//
		// Range runs pipeline the warmup prefix too: its shots must flow
		// through the controller (its learned state at shot offset depends
		// on them) but are never merged, traced or streamed.
		forEachShot(total, workers, canceled, func(i int) synthOut {
			var span *trace.ShotSpan
			if i >= offset {
				span = e.Trace.Shot(i)
			}
			return synthOut{e.synthShot(wl, plan, shotRNGs[i], sessionOf(i), span), span}
		}, func(i int, so synthOut) {
			sr := e.feedbackShot(wl, plan, so.recs, sessionOf(i), so.span)
			if i < offset {
				return // warmup: controller state only
			}
			merge(sr)
			e.Trace.Commit(so.span)
		})
	} else {
		// Whole shots. A shot-safe controller carries no cross-shot state,
		// so shots fan out and a range run skips the warmup prefix: shot
		// offset+i is a pure function of its own stream. A sequential
		// controller with a simulated register couples each shot's physics
		// to the history learned from every earlier shot (a decision's
		// latency feeds the same shot's decoherence), so its shots run in
		// order on one worker from shot 0, and a range run's warmup prefix
		// runs untraced and is discarded at merge.
		first := offset
		if !shotSafe {
			first, workers = 0, 1
		}
		forEachShot(total-first, workers, canceled, func(i int) shotOut {
			g := first + i
			var span *trace.ShotSpan
			if g >= offset {
				span = e.Trace.Shot(g)
			}
			return shotOut{e.runShot(wl, plan, sk, shotRNGs[g], sessionOf(g), span), span}
		}, func(i int, so shotOut) {
			if first+i < offset {
				return // warmup: controller state only
			}
			merge(so.sr)
			e.Trace.Commit(so.span)
		})
	}
	canceledRun := fold.Shots() < shots
	if canceledRun {
		ms.canceled.Inc()
	}
	res := fold.Result(wl.Name, e.Ctrl.Name(), canceledRun)
	res.Latencies = latencies
	res.Faults = faults
	res.MeanDecisionNs = perSite.Mean()
	if sites := perSite.N(); sites > 0 {
		res.FallbackRate = float64(faults.Fallbacks) / float64(sites)
	}
	return res
}

// shotOut pairs a shot's result with its trace span for in-order commit.
type shotOut struct {
	sr   ShotResult
	span *trace.ShotSpan
}

// synthOut pairs a shot's readout records with its trace span.
type synthOut struct {
	recs []readout.Record
	span *trace.ShotSpan
}

// RunShot executes one shot of the workload, fault-free (fault injection
// is a property of whole runs — use Run with Engine.Faults set). The
// circuit plan (site analyses plus compiled op-tape) comes from the
// engine's per-circuit cache, so calling RunShot in a loop re-runs
// neither the pre-execution analysis nor the compile every shot.
func (e *Engine) RunShot(wl *workload.Workload, rng *stats.RNG) ShotResult {
	plan := e.planFor(wl.Circuit)
	return e.runShot(wl, plan, e.simKindFor(plan, wl.Circuit), rng, nil, nil)
}

// runShot executes one shot by replaying the circuit's compiled op-tape
// on the register sk selects: none (latency-only physics: each site's
// state is drawn from its prior), a state vector with its noiseless ideal
// reference, or a stabilizer tableau. The noisy register advances gate by
// gate, so the per-gate noise draws interleave exactly as in a walk of the
// instruction list (the differential tests replay every shot through such
// a walk and require bit-identical results); only the ideal reference
// evolves through fused kernel chains. Every register consumes the same
// draws (the quantum.Backend contract), so a Clifford workload's shots are
// bit-identical on either backend. A shot is a pure function of (wl, plan,
// rng, sess) plus the controller's state, so shot-safe controllers may run
// shots concurrently, one RNG stream (and fault session, and trace span)
// per call.
func (e *Engine) runShot(wl *workload.Workload, plan *circuitPlan, sk simKind, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan) ShotResult {
	c := wl.Circuit
	tape := plan.tape

	// The workload's fixed gate payload is a shot-scoped span (site -1),
	// recorded before the first SetSite.
	span.Span(trace.StagePayload, 0, wl.GatePayloadNs)

	var b quantum.Backend // the noisy register; nil for latency-only shots
	var noisy, ideal *quantum.State
	switch sk {
	case simState:
		pool := e.statePool(c.NumQubits)
		noisy = pool.Get()
		ideal = pool.Get()
		defer pool.Put(noisy)
		defer pool.Put(ideal)
		b = noisy
	case simTableau:
		pool := e.tableauPool(c.NumQubits)
		t := pool.Get()
		defer pool.Put(t)
		b = t
	}
	idealAlive := ideal != nil
	var detunings []float64
	if b != nil {
		// Thermal initial excitation (e.g. the population active reset
		// exists to remove). The ideal reference starts identically: reset
		// must clean it up, so fidelity is judged against the same start.
		for q, p := range wl.InitExciteP {
			if rng.Bool(p) {
				b.X(q)
				if ideal != nil {
					ideal.X(q)
				}
			}
		}
		// Nil, drawing nothing, under the Clifford-safe noise a tableau
		// requires.
		detunings = e.Noise.SampleDetunings(c.NumQubits, rng)
	}
	detuningOf := func(q int) float64 {
		if detunings == nil {
			return 0
		}
		return detunings[q]
	}

	sr := ShotResult{FeedbackLatencyNs: wl.GatePayloadNs, Fidelity: math.NaN()}
	if tape.NumSites > 0 {
		sr.Outcomes = make([]controller.Outcome, 0, tape.NumSites)
	}
	bits := e.siteBits(tape.NumSites)
	for oi := range tape.Ops {
		op := &tape.Ops[oi]
		if b == nil && op.Kind != circuit.TapeFeedback {
			continue
		}
		switch op.Kind {
		case circuit.TapeFused1Q:
			e.applyNoisy(b, op, rng)
			if ideal != nil {
				ideal.ApplyKernelChain(op.Qubit, op.Ks)
			}
		case circuit.TapeGate2Q:
			e.applyNoisy(b, op, rng)
			if ideal != nil {
				op.Gate.Apply(ideal)
			}
		case circuit.TapeMeasure:
			m := e.Noise.NoisyMeasure(b, op.Qubit, rng)
			idealAlive = idealAlive && projectIdeal(ideal, op.Qubit, m)
			if e.RecordMeasurements {
				sr.Measurements = append(sr.Measurements, m)
			}
		case circuit.TapeReset:
			m := b.Reset(op.Qubit, rng)
			if ideal != nil {
				ideal.Reset(op.Qubit, rng)
			} else {
				rng.Float64() // the ideal reference's Reset draw
			}
			if e.RecordMeasurements {
				sr.Measurements = append(sr.Measurements, m)
			}
		case circuit.TapeFeedback:
			fb := op.FB
			a := plan.analyses[op.Site]
			prior := wl.SiteP1[op.Site]

			// Physical qubit state at readout start.
			var m int
			if b != nil {
				m = b.Measure(fb.Qubit, rng)
				if e.RecordMeasurements {
					sr.Measurements = append(sr.Measurements, m)
				}
			} else if rng.Bool(prior) {
				m = 1
			}

			span.SetSite(op.Site, fb.Qubit)
			r := e.readSite(bits, op.Site, m, rng, sess, span)
			out := e.Ctrl.Feedback(e.siteFor(a, op.Site, fb, prior), controller.Shot{Record: r, Faults: sess, Span: span})
			sr.Outcomes = append(sr.Outcomes, out)
			sr.FeedbackLatencyNs += out.LatencyNs
			if b == nil {
				continue
			}

			// Latency-dependent idling: branch qubits wait for the
			// feedback decision; the read qubit is pinned for at least
			// the readout pulse. Idle windows optionally run as X-echo
			// (DD) sequences, refocusing quasi-static dephasing; the
			// measured qubit holds a classical state during readout, so
			// it takes no echo.
			for q := 0; q < c.NumQubits; q++ {
				dt := out.LatencyNs
				if q == fb.Qubit {
					if dt < e.Channel.Cal.DurationNs {
						dt = e.Channel.Cal.DurationNs
					}
					e.Noise.ApplyIdle(b, q, dt, rng)
					continue
				}
				e.Noise.ApplyIdleDetuned(b, q, dt, detuningOf(q), e.EnableDD, rng)
			}
			// A wrongly pre-executed branch physically runs, is undone,
			// and only then does the correct branch run: the extra gate
			// churn costs real gate error.
			if out.Committed && !out.Correct {
				wrong, undo := op.OnOne, op.InvOnOne
				if out.Predicted == 0 {
					wrong, undo = op.OnZero, op.InvOnZero
				}
				if undo == nil {
					// Only a case-4 body (one that measures or resets)
					// has no inverse tape, and a case-4 site never
					// commits a prediction.
					panic(circuit.ErrIrreversibleBody)
				}
				e.applyTape(b, wrong, rng)
				e.applyTape(b, undo, rng)
			}
			// The hardware acts on its classification (truth), which may
			// disagree with the physical state m on a readout error.
			bt := op.OnOne
			if r.Truth == 0 {
				bt = op.OnZero
			}
			e.applyTape(b, bt, rng)

			// Ideal reference: perfect hardware follows the physical
			// outcome instantly and noiselessly — fused replay.
			idealAlive = idealAlive && projectIdeal(ideal, fb.Qubit, m)
			if idealAlive {
				ib := op.OnOne
				if m == 0 {
					ib = op.OnZero
				}
				ib.Apply(ideal)
			}
		}
	}
	if ideal != nil {
		if idealAlive {
			sr.Fidelity = noisy.Fidelity(ideal)
		} else {
			sr.Fidelity = 0
		}
	}
	if sess != nil {
		sr.Faults = sess.C
	}
	return sr
}

// applyNoisy applies one gate op of a tape to the noisy register, each
// gate followed by its noise draws: through the precompiled kernels on a
// state vector, through Clifford decompositions on a tableau.
func (e *Engine) applyNoisy(b quantum.Backend, op *circuit.TapeOp, rng *stats.RNG) {
	s, isState := b.(*quantum.State)
	if op.Kind == circuit.TapeGate2Q {
		if isState {
			op.Gate.Apply(s)
		} else {
			circuit.ApplyCliffordGate(b, op.Gate)
		}
		e.Noise.AfterGate2Q(b, op.Gate.Qubits[0], op.Gate.Qubits[1], rng)
		return
	}
	for gi := range op.Gates {
		if isState {
			s.ApplyKernel(op.Qubit, &op.Ks[gi])
		} else {
			circuit.ApplyCliffordGate(b, op.Gates[gi])
		}
		if op.Gates[gi].Kind != circuit.RZ { // virtual Z is error-free
			e.Noise.AfterGate1Q(b, op.Qubit, rng)
		}
	}
}

// applyTape replays a compiled branch-body tape on the noisy register.
func (e *Engine) applyTape(b quantum.Backend, t *circuit.Tape, rng *stats.RNG) {
	for oi := range t.Ops {
		e.applyNoisy(b, &t.Ops[oi], rng)
	}
}

// synthShot runs the physics of one shot when no state is simulated: per
// feedback site, draw the qubit state from the site's prior and capture
// its readout record. The RNG draw order matches runShot's non-simulated
// path exactly, so a shot's physics is bit-identical whichever path
// executes it. Fault draws (IQ glitches) come from the shot's own session,
// never the physics stream. The span (worker-private until merge)
// receives the shot's payload span and per-site classification events.
// The records' bits share one per-shot backing and are small next to the
// pulses they summarize, which bounds the reorder buffer's memory.
func (e *Engine) synthShot(wl *workload.Workload, plan *circuitPlan, rng *stats.RNG, sess *fault.Session, span *trace.ShotSpan) []readout.Record {
	span.Span(trace.StagePayload, 0, wl.GatePayloadNs)
	recs := make([]readout.Record, len(wl.SiteP1))
	bits := e.siteBits(len(recs))
	for i, prior := range wl.SiteP1 {
		var m int
		if rng.Bool(prior) {
			m = 1
		}
		span.SetSite(i, plan.siteOps[i].FB.Qubit)
		recs[i] = e.readSite(bits, i, m, rng, sess, span)
	}
	return recs
}

// feedbackShot drives the (sequential) controller over one shot's
// readout records in site order and assembles the ShotResult. Site
// descriptors come from the plan's cached analyses and feedback tape ops.
func (e *Engine) feedbackShot(wl *workload.Workload, plan *circuitPlan, recs []readout.Record, sess *fault.Session, span *trace.ShotSpan) ShotResult {
	sr := ShotResult{FeedbackLatencyNs: wl.GatePayloadNs, Fidelity: math.NaN()}
	sr.Outcomes = make([]controller.Outcome, 0, len(recs))
	for i, r := range recs {
		fb := plan.siteOps[i].FB
		span.SetSite(i, fb.Qubit)
		out := e.Ctrl.Feedback(
			e.siteFor(plan.analyses[i], i, fb, wl.SiteP1[i]),
			controller.Shot{Record: r, Faults: sess, Span: span},
		)
		sr.Outcomes = append(sr.Outcomes, out)
		sr.FeedbackLatencyNs += out.LatencyNs
	}
	if sess != nil {
		sr.Faults = sess.C
	}
	return sr
}

// siteFor converts a pre-execution analysis into the controller's site
// descriptor.
func (e *Engine) siteFor(a *circuit.SiteAnalysis, idx int, fb *circuit.Feedback, prior float64) controller.Site {
	// Deterministically pick the lowest-indexed branch qubit other than
	// the read qubit (BranchQubit is a set; ranging it directly would make
	// the routing — and hence every latency — vary run to run).
	branchQ := fb.Qubit
	for q := range a.BranchQubit {
		if q != fb.Qubit && (branchQ == fb.Qubit || q < branchQ) {
			branchQ = q
		}
	}
	site := controller.Site{
		ID:          idx,
		Case:        a.Case,
		ReadQubit:   clampQubit(fb.Qubit),
		BranchQubit: clampQubit(branchQ),
		Prior:       prior,
	}
	if a.Case.PreExecutable() {
		site.UndoOnOneNs = circuit.BodyDuration(a.RecoveryOnOne)
		site.UndoOnZeroNs = circuit.BodyDuration(a.RecoveryOnZero)
	}
	return site
}

// clampQubit folds circuit qubit indices onto the 18-qubit paper topology.
func clampQubit(q int) int {
	const topoQubits = 18
	if q < 0 {
		return 0
	}
	return q % topoQubits
}

// projectIdeal collapses the ideal state onto outcome m of qubit q. It
// returns false when the outcome has (near-)zero amplitude, meaning the
// noisy trajectory left the ideal branch entirely.
func projectIdeal(s *quantum.State, q, m int) bool {
	p1 := s.Prob1(q)
	pm := p1
	if m == 0 {
		pm = 1 - p1
	}
	if pm < 1e-12 {
		return false
	}
	s.Project(q, m)
	return true
}

// ValidateWorkload reports a nil or inconsistent workload as an error (the
// public artery API routes through it).
func ValidateWorkload(wl *workload.Workload) error {
	if wl == nil {
		return fmt.Errorf("core: nil workload")
	}
	if err := wl.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
