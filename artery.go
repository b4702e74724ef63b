// Package artery is the public API of the ARTERY library — a faithful
// reproduction of "ARTERY: Fast Quantum Feedback using Branch Prediction"
// (ISCA 2025).
//
// ARTERY accelerates quantum feedback by predicting the branch of a
// mid-circuit measurement before the readout pulse completes, pre-executing
// the predicted branch circuit, and recovering with inverse gates on a
// misprediction. The predictor fuses each feedback site's historical branch
// distribution with a real-time classification of the partial readout-pulse
// IQ trajectory through a Bayesian model.
//
// The package wires together the full system described in the paper:
// readout-channel calibration, the reconciled branch predictor, the
// feedback controller with dynamic timing and hierarchical interconnect
// routing, the benchmark workloads, and a Monte-Carlo quantum simulation
// that converts feedback latency into fidelity. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
//
// Quickstart:
//
//	sys, err := artery.New(artery.WithSeed(1))
//	if err != nil {
//	    log.Fatal(err)
//	}
//	report := sys.Run(artery.QRW(5), 200)
//	fmt.Printf("latency %.2f µs, accuracy %.1f%%\n",
//	    report.MeanLatencyUs, 100*report.Accuracy)
//
// Construction takes functional options (WithSeed, WithWorkers,
// WithTracing, ...).
package artery

import (
	"context"
	"fmt"
	"io"
	"math"

	"artery/internal/circuit"
	"artery/internal/controller"
	"artery/internal/core"
	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/qec"
	"artery/internal/quantum"
	"artery/internal/readout"
	"artery/internal/stats"
	"artery/internal/trace"
	"artery/internal/workload"
)

// PredictorMode mirrors the Figure-14 ablation arms.
type PredictorMode int

// Predictor modes.
const (
	ModeCombined   PredictorMode = PredictorMode(predict.ModeCombined)
	ModeHistory    PredictorMode = PredictorMode(predict.ModeHistory)
	ModeTrajectory PredictorMode = PredictorMode(predict.ModeTrajectory)
)

// Workload is a feedback benchmark program. Construct instances with QRW,
// RCNOT, DQT, RUSQNN, Reset, Random, QEC, EntangleSwap or MSI, or build a
// circuit directly (e.g. parsed from the QASM dialect) and attach per-site
// priors.
type Workload = workload.Workload

// Report summarizes one workload run under one controller.
type Report struct {
	Workload   string
	Controller string
	Shots      int
	// MeanLatencyUs is the mean per-shot feedback latency in microseconds
	// (summed over the workload's feedback sites, Table 1's metric).
	MeanLatencyUs float64
	// Accuracy is the fraction of committed branch predictions that proved
	// correct (1.0 for the non-predictive baselines).
	Accuracy float64
	// CommitRate is the fraction of feedback executions that committed a
	// prediction before the readout completed.
	CommitRate float64
	// Fidelity is the mean end-of-circuit state fidelity against an ideal
	// zero-latency execution (NaN when state simulation is disabled).
	Fidelity float64
	// Stages is the per-stage feedback-latency breakdown over the run's
	// feedback outcomes, in pipeline order (stages that never occurred are
	// omitted). It is always populated — tracing need not be on — and is
	// bit-identical at any worker count.
	Stages []StageLatency
	// Canceled reports that the run's context was canceled before all
	// requested shots executed; the metrics then cover the Shots merged
	// shots.
	Canceled bool
}

// StageLatency is one row of a Report's per-stage latency breakdown: how
// often a feedback pipeline stage occurred and how many nanoseconds it
// consumed.
type StageLatency = core.StageLatency

func (r Report) String() string {
	return fmt.Sprintf("%-12s %-14s latency=%6.2fµs accuracy=%5.1f%% commit=%5.1f%% fidelity=%.4f",
		r.Workload, r.Controller, r.MeanLatencyUs, 100*r.Accuracy, 100*r.CommitRate, r.Fidelity)
}

// System is a calibrated ARTERY stack: readout channel, predictor,
// controller, interconnect and simulator.
type System struct {
	opts    config
	channel *readout.Channel
	topo    *interconnect.Topology
	rng     *stats.RNG
	// rec / metrics instrument every run when non-nil (see WithTracing and
	// WithMetrics); traceW receives each run's JSONL event stream.
	rec     *trace.Recorder
	metrics *trace.Registry
	traceW  io.Writer
}

// config is the resolved constructor configuration. The zero value
// selects the paper's evaluation configuration.
type config struct {
	Seed                uint64
	WindowNs            float64
	HistoryDepth        int
	Theta               float64
	Mode                PredictorMode
	DisableStateSim     bool
	DynamicalDecoupling bool
	QuasiStaticSigma    float64
	Workers             int
	Backend             string
	traceW              io.Writer
	metrics             bool
}

// Option configures New. Options compose left to right; later options
// override earlier ones.
type Option func(*config)

// WithSeed seeds every stochastic component; runs are reproducible per
// seed. Zero (and omitting the option) selects seed 1.
func WithSeed(seed uint64) Option { return func(c *config) { c.Seed = seed } }

// WithWorkers bounds shot-level parallelism: 0 uses GOMAXPROCS workers, 1
// forces serial execution. Results are bit-identical at every setting.
func WithWorkers(n int) Option { return func(c *config) { c.Workers = n } }

// WithWindowNs sets the demodulation window length in nanoseconds
// (default 30 ns, §6.1).
func WithWindowNs(ns float64) Option { return func(c *config) { c.WindowNs = ns } }

// WithHistoryDepth sets the number of branch-history registers k
// (default 6).
func WithHistoryDepth(k int) Option { return func(c *config) { c.HistoryDepth = k } }

// WithTheta sets the symmetric confidence threshold (default 0.91,
// Figure 17). Valid thresholds lie in (0.5, 1).
func WithTheta(theta float64) Option { return func(c *config) { c.Theta = theta } }

// WithMode selects the predictor features (default: combined).
func WithMode(m PredictorMode) Option { return func(c *config) { c.Mode = m } }

// WithoutStateSim skips the per-shot quantum-state fidelity simulation
// (latency and accuracy remain available; much faster for sweeps).
func WithoutStateSim() Option { return func(c *config) { c.DisableStateSim = true } }

// WithBackend selects the quantum simulation backend: "auto" (default,
// also ""), "state"/"statevector", or "stabilizer"/"tableau". Auto keeps
// the state vector for small circuits and promotes wide Clifford circuits
// to the stabilizer tableau; an explicit backend that cannot execute the
// workload fails the run with a typed error (ErrNonClifford,
// ErrIrreversibleBody, ErrNoiseNotCliffordSafe). An explicit "stabilizer"
// runs under the Clifford-safe projection of the device noise model:
// depolarizing gate error and readout flips apply unchanged, T1/T2 decay
// (which a tableau cannot represent) is lifted to infinity. Ignored
// without state simulation.
func WithBackend(name string) Option { return func(c *config) { c.Backend = name } }

// WithDynamicalDecoupling executes feedback idle windows as X-echo
// sequences, refocusing quasi-static dephasing (the paper applies DD to
// idle qubits in its QEC experiment). Only observable with a non-zero
// WithQuasiStaticSigma.
func WithDynamicalDecoupling() Option { return func(c *config) { c.DynamicalDecoupling = true } }

// WithQuasiStaticSigma adds a per-shot frozen frequency detuning (rad/ns)
// to the noise model — the refocusable low-frequency dephasing component.
func WithQuasiStaticSigma(sigma float64) Option {
	return func(c *config) { c.QuasiStaticSigma = sigma }
}

// WithTracing records typed span events for every shot of every run —
// readout classification, per-window posterior evolution, interconnect
// hops, per-stage latency partitions — and streams them to w as JSON
// Lines after each run completes. Tracing never perturbs results: events
// are committed in shot order, so the stream (like the Report) is
// bit-identical at any worker count. A nil w disables tracing.
func WithTracing(w io.Writer) Option {
	return func(c *config) { c.traceW = w }
}

// WithMetrics attaches a metrics registry — counters and latency
// histograms updated on every run — exposed through System.WriteMetrics
// in Prometheus text format.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// New calibrates a system: it generates the training pulse corpus, fits
// the readout classifier, and pre-generates the trajectory state table
// (the paper's hardware-initialization step), afresh on every call;
// CalibrationCache.New shares one calibration between systems. It returns
// an error for out-of-range or non-finite settings (Theta outside
// (0.5, 1), negative WindowNs, HistoryDepth outside [1, 20], ...).
func New(opts ...Option) (*System, error) {
	return newSystem(opts, nil)
}

// MustNew is New but panics on an invalid configuration — convenient in
// tests, examples and package-level variables.
func MustNew(opts ...Option) *System {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate reports, without calibrating, whether a system built from opts
// could run wl: it rejects what New rejects plus everything a run rejects
// before its first shot, through the same code — an unknown backend name,
// quasi-static detuning on the stabilizer backend, and an explicit backend
// the circuit cannot run on. Servers use it to reject bad requests at
// admission time instead of failing the job later.
func Validate(wl *Workload, opts ...Option) error {
	cfg, err := resolve(opts)
	if err != nil {
		return err
	}
	if err := core.ValidateWorkload(wl); err != nil {
		return err
	}
	_, err = cfg.engine(wl)
	return err
}

// resolve applies opts left to right over the zero configuration,
// resolves the remaining zero values to the paper's evaluation settings,
// and validates the result.
func resolve(opts []Option) (config, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.WindowNs == 0 {
		cfg.WindowNs = readout.DefaultWinNs
	}
	if cfg.HistoryDepth == 0 {
		cfg.HistoryDepth = readout.DefaultK
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.91
	}
	return cfg, validateConfig(cfg)
}

// newSystem resolves opts and calibrates, through cache when it is
// non-nil. The calibration stream is rng.Split() of the system RNG,
// spelled out so that a cache hit takes the same one draw.
func newSystem(opts []Option, cache *CalibrationCache) (*System, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	ch := cache.channel(calibKey{seed: rng.Uint64(), windowNs: cfg.WindowNs, k: cfg.HistoryDepth})
	s := &System{opts: cfg, channel: ch, topo: interconnect.PaperTopology(), rng: rng}
	if cfg.traceW != nil {
		s.rec = trace.NewRecorder(0)
		s.traceW = cfg.traceW
	}
	if cfg.metrics {
		s.metrics = trace.NewRegistry()
	}
	return s, nil
}

// validateConfig rejects out-of-range settings after defaulting. Every
// range check below is false for NaN, so non-finite values go first.
func validateConfig(cfg config) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Theta", cfg.Theta}, {"WindowNs", cfg.WindowNs}, {"QuasiStaticSigma", cfg.QuasiStaticSigma}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("artery: %s must be finite, got %v", f.name, f.v)
		}
	}
	if cfg.Theta <= 0.5 || cfg.Theta >= 1 {
		return fmt.Errorf("artery: Theta must lie in (0.5, 1), got %v", cfg.Theta)
	}
	if cfg.WindowNs < 0 {
		return fmt.Errorf("artery: WindowNs must be positive, got %v", cfg.WindowNs)
	}
	if dur := readout.DefaultCalibration().DurationNs; cfg.WindowNs > dur {
		return fmt.Errorf("artery: WindowNs %v exceeds the %v ns readout", cfg.WindowNs, dur)
	}
	if cfg.HistoryDepth < 1 || cfg.HistoryDepth > 20 {
		return fmt.Errorf("artery: HistoryDepth must lie in [1, 20], got %d", cfg.HistoryDepth)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("artery: Workers must be non-negative, got %d", cfg.Workers)
	}
	if cfg.QuasiStaticSigma < 0 {
		return fmt.Errorf("artery: QuasiStaticSigma must be non-negative, got %v", cfg.QuasiStaticSigma)
	}
	if m := predict.Mode(cfg.Mode); m != predict.ModeCombined && m != predict.ModeHistory && m != predict.ModeTrajectory {
		return fmt.Errorf("artery: unknown predictor mode %d", cfg.Mode)
	}
	if _, err := quantum.ParseBackendKind(cfg.Backend); err != nil {
		return fmt.Errorf("artery: %w", err)
	}
	return nil
}

// Typed backend-selection errors, re-exported so callers can errors.Is
// against runStream failures without importing internal packages.
var (
	// ErrNonClifford: the stabilizer backend was requested for a circuit
	// containing a non-Clifford gate.
	ErrNonClifford = circuit.ErrNonClifford
	// ErrIrreversibleBody: the stabilizer backend was requested for a
	// circuit whose feedback bodies cannot be inverted on misprediction.
	ErrIrreversibleBody = circuit.ErrIrreversibleBody
	// ErrNoiseNotCliffordSafe: the stabilizer backend was requested under
	// a noise model with non-Clifford channels.
	ErrNoiseNotCliffordSafe = core.ErrNoiseNotCliffordSafe
)

// controllerRegistry is the single ordered table of feedback controllers:
// ControllerNames and newController both read it, so a controller cannot
// be listed without being constructible (or vice versa). The order is the
// paper's presentation order — ARTERY first, then the four baselines —
// and Compare reports in this order.
var controllerRegistry = []struct {
	name string
	make func(s *System) controller.Controller
}{
	{"ARTERY", func(s *System) controller.Controller {
		cfg := predict.Config{Theta: s.opts.Theta, Mode: predict.Mode(s.opts.Mode)}
		return controller.NewArtery(controller.DefaultUnits(), s.topo, predict.New(cfg, s.channel))
	}},
	{"QubiC", func(s *System) controller.Controller {
		return controller.NewBaseline("QubiC", controller.QubiCOverheadNs, s.topo)
	}},
	{"HERQULES", func(s *System) controller.Controller {
		return controller.NewBaseline("HERQULES", controller.HERQULESOverheadNs, s.topo)
	}},
	{"Salathe et al.", func(s *System) controller.Controller {
		return controller.NewBaseline("Salathe et al.", controller.SalatheOverheadNs, s.topo)
	}},
	{"Reuer et al.", func(s *System) controller.Controller {
		return controller.NewBaseline("Reuer et al.", controller.ReuerOverheadNs, s.topo)
	}},
}

// ControllerNames lists the available feedback controllers: "ARTERY" plus
// the paper's four baselines.
func ControllerNames() []string {
	out := make([]string, len(controllerRegistry))
	for i, e := range controllerRegistry {
		out[i] = e.name
	}
	return out
}

// newController builds a fresh controller by name (fresh predictor state
// per run, so runs are independent).
func (s *System) newController(name string) (controller.Controller, error) {
	for _, e := range controllerRegistry {
		if e.name == name {
			return e.make(s), nil
		}
	}
	return nil, fmt.Errorf("artery: unknown controller %q", name)
}

// Run executes a workload for the given shots under the ARTERY controller.
func (s *System) Run(wl *Workload, shots int) Report {
	return s.RunWith("ARTERY", wl, shots)
}

// RunWith executes a workload under a named controller. It panics on an
// invalid workload or unknown controller name; RunWithContext is the
// error-returning form.
func (s *System) RunWith(name string, wl *Workload, shots int) Report {
	rep, err := s.RunWithContext(context.Background(), name, wl, shots)
	if err != nil {
		panic(err)
	}
	return rep
}

// RunContext is Run with cooperative cancellation and error reporting:
// the engine checks ctx at shot-batch boundaries, and a canceled context
// returns the aggregates over the shots merged so far with
// Report.Canceled set (not an error — the partial result is still valid
// and deterministic). The error path covers invalid workloads.
func (s *System) RunContext(ctx context.Context, wl *Workload, shots int) (Report, error) {
	return s.RunWithContext(ctx, "ARTERY", wl, shots)
}

// RunWithContext is RunContext under a named controller (see
// ControllerNames).
func (s *System) RunWithContext(ctx context.Context, name string, wl *Workload, shots int) (Report, error) {
	return s.runStream(ctx, name, wl, 0, shots, nil)
}

// ShotUpdate is one committed shot of a streaming run, delivered in shot
// order as the engine's merge path commits it: the shot's global index,
// summed feedback latency (plus gate payload), fidelity (NaN without state
// simulation), site/commit/correct/fallback tallies, and its ordered
// per-stage latency deltas, gate payload first. Folding a run's updates
// in shot order reproduces its Report bit-for-bit, which is what lets a
// scatter-gather coordinator recombine sharded shot streams into a result
// byte-identical to a single-node run.
type ShotUpdate = core.ShotSummary

// RunStream is RunWithContext with a per-shot observer: fn is invoked for
// every merged shot, strictly in shot order, before the final Report is
// assembled. The update stream is bit-identical at any worker count (it
// is produced on the engine's in-order merge path), which is what lets a
// network service stream partial results while preserving the engine's
// determinism guarantee. fn must not block — the merge path stalls until
// it returns. A nil fn degenerates to RunWithContext.
func (s *System) RunStream(ctx context.Context, name string, wl *Workload, shots int, fn func(ShotUpdate)) (Report, error) {
	return s.runStream(ctx, name, wl, 0, shots, fn)
}

// RunRangeStream is RunStream over the global shot range
// [offset, offset+shots) of a conceptually larger run: per-shot RNG
// streams are drawn for global indices, ShotUpdate.Shot carries global
// indices, and the Report covers exactly the requested range — each
// shot's values bit-identical to the same shots of a full single-node
// run. Sequential controllers (ARTERY) replay the warmup prefix
// [0, offset) through the controller to reproduce its learned state
// exactly; shot-safe baselines skip the prefix outright. This is the
// execution primitive behind sharded multi-node jobs (see
// internal/cluster): a coordinator splits a job into contiguous ranges,
// runs each on a different arteryd, and merges the streams in index
// order into a byte-identical result.
func (s *System) RunRangeStream(ctx context.Context, name string, wl *Workload, offset, shots int, fn func(ShotUpdate)) (Report, error) {
	return s.runStream(ctx, name, wl, offset, shots, fn)
}

// runStream is the shared run implementation behind RunWithContext,
// RunStream and RunRangeStream.
func (s *System) runStream(ctx context.Context, name string, wl *Workload, offset, shots int, fn func(ShotUpdate)) (Report, error) {
	if err := core.ValidateWorkload(wl); err != nil {
		return Report{}, err
	}
	if offset < 0 {
		return Report{}, fmt.Errorf("artery: shot offset must be non-negative, got %d", offset)
	}
	if shots < 0 {
		return Report{}, fmt.Errorf("artery: shot count must be non-negative, got %d", shots)
	}
	if offset > math.MaxInt-shots {
		return Report{}, fmt.Errorf("artery: shot range %d+%d overflows int", offset, shots)
	}
	ctrl, err := s.newController(name)
	if err != nil {
		return Report{}, err
	}
	eng, err := s.opts.engine(wl)
	if err != nil {
		return Report{}, err
	}
	eng.Ctrl, eng.Channel = ctrl, s.channel
	eng.Trace = s.rec
	eng.Metrics = s.metrics
	if fn != nil {
		eng.OnShot = func(shot int, sr core.ShotResult) {
			fn(core.Summarize(shot, wl.GatePayloadNs, sr))
		}
	}
	res := eng.RunRange(ctx, wl, offset, shots, s.rng.Split())
	if err := s.flushTrace(); err != nil {
		return Report{}, err
	}
	return Report{
		Workload:      res.Workload,
		Controller:    res.Controller,
		Shots:         res.Shots,
		MeanLatencyUs: res.MeanLatencyNs / 1000,
		Accuracy:      res.Accuracy,
		CommitRate:    res.CommitRate,
		Fidelity:      res.MeanFidelity,
		Stages:        res.Stages,
		Canceled:      res.Canceled,
	}, nil
}

// engine builds the engine a run of wl uses, short of its controller and
// channel, after the checks every run makes before its first shot: the
// backend name, the stabilizer's Clifford-safe noise projection, and
// whether an explicit backend can run the circuit. Validate runs the same
// code, so admission rejects exactly what a run would.
func (c config) engine(wl *Workload) (*core.Engine, error) {
	backend, err := quantum.ParseBackendKind(c.Backend)
	if err != nil {
		return nil, fmt.Errorf("artery: %w", err)
	}
	noise := quantum.DeviceNoise()
	noise.QuasiStaticSigma = c.QuasiStaticSigma
	if backend == quantum.BackendStabilizer {
		// A tableau cannot represent amplitude damping: an explicit
		// stabilizer request opts into the Clifford-safe projection of the
		// device noise (depolarizing gate error and readout flips stay;
		// T1/T2 decay is lifted). Quasi-static detuning has no Clifford
		// projection, so that combination stays a typed error.
		if c.QuasiStaticSigma != 0 {
			return nil, fmt.Errorf("artery: %w", core.ErrNoiseNotCliffordSafe)
		}
		noise.T1, noise.T2 = math.Inf(1), math.Inf(1)
	}
	eng := core.NewEngine(nil, nil, noise)
	eng.SimulateState = !c.DisableStateSim
	eng.EnableDD = c.DynamicalDecoupling
	eng.Workers = c.Workers
	eng.Backend = backend
	// An explicit backend the workload cannot run on is a request error,
	// not a panic: resolve it here, before any shot executes. Auto always
	// resolves, so only an explicit backend pays for the circuit plan now.
	if backend != quantum.BackendAuto {
		if err := eng.CheckBackend(wl); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// flushTrace streams the recorder's committed events to the tracing
// writer and clears the recorder for the next run.
func (s *System) flushTrace() error {
	if s.rec == nil || s.traceW == nil {
		return nil
	}
	err := s.rec.WriteJSONL(s.traceW)
	s.rec.Reset()
	return err
}

// WriteMetrics writes the system's accumulated metrics — counters and
// latency histograms over every run so far — in the Prometheus text
// exposition format. Without WithMetrics it writes nothing.
func (s *System) WriteMetrics(w io.Writer) error {
	return s.metrics.WriteProm(w)
}

// Compare runs a workload under every controller and returns the reports
// in ControllerNames order.
func (s *System) Compare(wl *Workload, shots int) []Report {
	var out []Report
	for _, name := range ControllerNames() {
		out = append(out, s.RunWith(name, wl, shots))
	}
	return out
}

// PredictShot synthesizes one readout pulse for a qubit prepared in the
// given state and traces the predictor's posterior evolution — the
// Figure 15 (a) view of one shot. prior is the site's historical branch-1
// probability.
func (s *System) PredictShot(state int, prior float64) ShotTrace {
	cfg := predict.Config{Theta: s.opts.Theta, Mode: predict.Mode(s.opts.Mode)}
	p := predict.New(cfg, s.channel)
	r := s.channel.Read(state, s.rng, nil, nil, nil)
	d := p.Predict(r, prior, nil)
	tr := ShotTrace{
		Prepared:  state,
		Truth:     r.Truth,
		Branch:    d.Branch,
		Committed: d.Committed,
		TimeUs:    d.TimeNs / 1000,
	}
	for _, pt := range d.Trace {
		tr.Posterior = append(tr.Posterior, [2]float64{pt.TimeNs / 1000, pt.PPredict})
	}
	return tr
}

// ShotTrace is the posterior evolution of one predicted shot.
type ShotTrace struct {
	Prepared  int
	Truth     int
	Branch    int
	Committed bool
	TimeUs    float64
	// Posterior holds (time µs, P_predict_1) pairs per window.
	Posterior [][2]float64
}

// WorkloadNames lists the named workloads WorkloadByName can build, in
// presentation order: qrw, rcnot, dqt, rusqnn, reset, qec, eswap, msi,
// surface. (Random is not name-addressable — it takes its own seed.)
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName builds a benchmark workload from its short name and size
// parameter — the single registry behind the server's request decoder and
// the CLI workload flags. It returns an error for an unknown name or an
// out-of-range parameter.
func WorkloadByName(name string, param int) (*Workload, error) {
	return workload.ByName(name, param)
}

// Workload constructors (re-exported from the workload package).

// QRW builds a quantum-random-walk benchmark with the given steps.
func QRW(steps int) *Workload { return workload.QRW(steps) }

// RCNOT builds a remote-CNOT benchmark with the given depth.
func RCNOT(depth int) *Workload { return workload.RCNOT(depth) }

// DQT builds a deterministic-quantum-teleportation benchmark.
func DQT(distance int) *Workload { return workload.DQT(distance) }

// RUSQNN builds a repeat-until-success QNN benchmark.
func RUSQNN(cycles int) *Workload { return workload.RUSQNN(cycles) }

// Reset builds an active-reset benchmark over n qubits.
func Reset(nQubits int) *Workload { return workload.Reset(nQubits) }

// Random builds a random feedback circuit with the given gate count,
// deterministically derived from seed.
func Random(gates int, seed uint64) *Workload {
	return workload.Random(gates, stats.NewRNG(seed))
}

// QEC builds the d=3 surface-code cycle benchmark.
func QEC(cycles int) *Workload { return workload.QECCycle(cycles) }

// EntangleSwap builds the case-2 (ancilla pre-execution) benchmark.
func EntangleSwap(depth int) *Workload { return workload.EntangleSwap(depth) }

// MSI builds the magic-state-injection benchmark (case-1 S corrections).
func MSI(injections int) *Workload { return workload.MSI(injections) }

// Surface builds a distance-d surface-code memory benchmark: 2d²−1
// qubits, two syndrome-extraction rounds with active ancilla-reset
// feedback, and a final data readout. It is pure Clifford, so — unlike
// every other workload — it scales to distances (d ≥ 15, hundreds of
// qubits) only the stabilizer backend can simulate.
func Surface(distance int) *Workload { return workload.SurfaceMemory(distance) }

// LogicalErrorRate simulates a distance-3 surface-code memory for the
// given number of correction cycles and Monte-Carlo trials: pData is the
// per-cycle X-flip probability of each data qubit (fold your controller's
// cycle latency into it via idle decoherence), pMeas the syndrome
// measurement flip probability. It returns the logical error rate —
// the quantity of Figure 12 (b)/(c).
func LogicalErrorRate(cycles, trials int, pData, pMeas float64, seed uint64) float64 {
	code := qec.NewCode(3)
	res := qec.RunMemory(qec.MemoryParams{
		Code:   code,
		Dec:    qec.NewLUTDecoder(code),
		Cycles: cycles,
		Trials: trials,
		PData:  pData,
		PMeas:  pMeas,
	}, stats.NewRNG(seed))
	return res.LogicalErrorRate()
}

// CyclePData converts a QEC cycle latency (in µs) into the per-cycle
// data-qubit flip probability at the calibrated device T1, with an
// exposure factor (>1 when corrections lag, as on conventional
// controllers) and a constant gate-error floor.
func CyclePData(cycleUs, exposure float64) float64 {
	return qec.PDataFromLatency(cycleUs*1000, 125_000, exposure, 0.004)
}

// CircuitLevelLogicalErrorRate is the gate-by-gate counterpart of
// LogicalErrorRate: every syndrome-extraction round runs on the stabilizer
// simulator with depolarizing gate noise (p1q/p2q), measurement flips and
// latency-scaled idle errors. Distance 3 uses the exact lookup-table
// decoder; larger odd distances use the union-find decoder.
func CircuitLevelLogicalErrorRate(distance, cycles, trials int, p2q, pMeas, pIdle float64, seed uint64) float64 {
	code := qec.NewCode(distance)
	var dec qec.Decoder
	if distance == 3 {
		dec = qec.NewLUTDecoder(code)
	} else {
		dec = qec.NewUnionFindDecoder(code)
	}
	res := qec.RunCircuitMemory(qec.CircuitMemoryParams{
		Code: code, Dec: dec, Cycles: cycles, Trials: trials,
		P1Q: p2q / 4, P2Q: p2q, PMeas: pMeas, PIdleData: pIdle,
	}, stats.NewRNG(seed))
	return res.LogicalErrorRate()
}

// TuneThreshold runs the Figure-17 threshold-selection procedure on the
// system's calibrated channel for a feedback site with the given branch-1
// prior, returning the latency-minimizing tolerance threshold and its
// expected per-feedback latency (µs) and accuracy.
func (s *System) TuneThreshold(prior float64, shots int) (theta, latencyUs, accuracy float64, err error) {
	res, err := predict.AutoTune(s.channel, predict.TuneConfig{
		Prior: prior,
		Shots: shots,
		Mode:  predict.Mode(s.opts.Mode),
	}, s.rng.Split())
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Theta, res.MeanLatencyNs / 1000, res.Accuracy, nil
}
