// Command e2ebench is the repository's end-to-end benchmark. It boots an
// in-process arteryd fleet on loopback HTTP with arteryd's default
// settings, drives it with a closed loop of two clients through the Go
// client, checks every output, and prints one JSON line of metrics.
//
//	bash e2ebench/run.sh --workload sweep-small --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, and reports per-layer
// metrics: CPU per layer from a CPU profile, plus counts and timings taken
// at the layer boundaries from outside the program (client calls, an HTTP
// middleware around every node, a RoundTripper on the coordinator's
// backend hop, /metrics scrapes). See README.md for the layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"artery"
)

// runBudget bounds a whole run: a hang fails the run within three
// minutes instead of blocking whoever runs the benchmark.
const runBudget = 170 * time.Second

// setups is how many times an end-to-end run boots and warms its fleet;
// setup_s is their median.
const setups = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sweep-small, surface-d15 or sharded-durable")
	seed := flag.Uint64("seed", 1, "workload seed: generates the job list")
	seconds := flag.Int("seconds", 20, "sizes the fixed job list to about this many seconds on the reference host")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	plan, err := spec.plan(*seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var rep *report
	var info map[string]any
	if *traced == 0 {
		rep, info, err = endToEnd(ctx, spec, plan)
	} else {
		rep, info, err = perLayer(ctx, spec, plan, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	info["workload"], info["seed"], info["seconds"], info["trace"] = spec.name, *seed, *seconds, *traced
	info["nproc"], info["gomaxprocs"], info["go"] = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	info["clients"], info["data_fs"] = clients, filesystemOf(".bench_build")
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"info": info}); err != nil {
		return 1
	}
	if err := out.Encode(rep); err != nil {
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// endToEnd is the untraced run: set the fleet up `setups` times (the last
// one stays up), drive the job list, check every output.
func endToEnd(ctx context.Context, spec *workloadSpec, plan *jobPlan) (*report, map[string]any, error) {
	var setupS []float64
	var f *fleet
	for k := 0; k < setups; k++ {
		fl, s, err := setUp(ctx, spec, plan.warm, dataDirFor(spec.name, k), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupS = append(setupS, s)
		if k < setups-1 {
			if err := fl.stop(); err != nil {
				return nil, nil, err
			}
		} else {
			f = fl
		}
	}
	before, err := f.front.scrape(ctx)
	if err != nil {
		return nil, nil, errors.Join(err, f.stop())
	}
	ph, err := drive(ctx, f.front.base, plan.jobs, keepSet(plan.sample), nil)
	var after scrape
	if err == nil {
		after, err = f.front.scrape(ctx)
	}
	idleMiB := 0.0
	if err == nil {
		idleMiB, err = idleRSS(ctx, f)
	}
	if err = errors.Join(err, f.stop()); err != nil {
		return nil, nil, err
	}
	checkSample(ctx, ph, plan.sample)
	rep := tally(ph)
	s := summarize(ph)
	m := map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"shots_per_s":     {float64(s.shots) / ph.wall.Seconds(), "1/s"},
		"cpu_ms_per_shot": {msPerShot(ph.cpu, s.shots), "ms"},
		"rss_idle_mb":     {idleMiB, "MiB"},
		"ok_ratio":        {float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "ratio"},
		"sim_feedback_us": {s.feedbackUs, "us"},
	}
	for _, p := range []struct {
		name string
		xs   []float64
	}{{"job_ms_p50", s.jobMs}, {"first_event_ms_p50", s.firstMs}} {
		v, err := percentile(p.xs, 0.5)
		if err != nil {
			return nil, nil, fmt.Errorf("%s over the verified jobs: %w", p.name, err)
		}
		m[p.name] = metric{v, "ms"}
	}
	rep.Metrics = m
	info := map[string]any{"jobs": len(ph.jobs), "shots": s.shots, "setup_s": setupS, "wall_s": ph.wall.Seconds(),
		"rss_mb_timed_median": median(ph.rssMiB), "host_steal": ph.steal, "hedges": delta(before, after, "artery_cluster_hedges_total")}
	return rep, info, nil
}

// perLayer is the traced run: the job list once untraced (the overhead
// baseline), then once with every tracing hook on and a CPU profile.
func perLayer(ctx context.Context, spec *workloadSpec, plan *jobPlan, seed uint64) (*report, map[string]any, error) {
	f, _, err := setUp(ctx, spec, plan.warm, dataDirFor(spec.name, 0), nil)
	if err != nil {
		return nil, nil, err
	}
	base, err := drive(ctx, f.front.base, plan.jobs, nil, nil)
	if err = errors.Join(err, f.stop()); err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	f, _, err = setUp(ctx, spec, plan.warm, dataDirFor(spec.name, 1), tr)
	if err != nil {
		return nil, nil, err
	}
	t := &tracedPass{fleet: f, tr: tr}
	ph, err := t.run(ctx, plan)
	if err = errors.Join(err, f.stop()); err != nil {
		return nil, nil, err
	}
	allocMiB, err := calibrationAllocMiB()
	if err != nil {
		return nil, nil, err
	}
	checkSample(ctx, ph, plan.sample)
	samePasses(base, ph)
	m, err := t.layerMetrics(ph, plan)
	if err != nil {
		return nil, nil, err
	}
	m["artery.calibrate_alloc_mb"] = metric{allocMiB, "MiB"}
	sb, st := summarize(base), summarize(ph)
	m["trace.overhead"] = metric{1 - (float64(st.shots)/ph.wall.Seconds())/(float64(sb.shots)/base.wall.Seconds()), "ratio"}

	rb := tally(base)
	rep := tally(ph)
	rep.Attempted += rb.Attempted
	rep.Failed += rb.Failed
	rep.Correct = rep.Correct && rb.Correct
	for k, want := range spec.exact {
		if got := m[k].Value; got != want {
			fmt.Fprintf(os.Stderr, "e2ebench: %s = %v, want exactly %v\n", k, got, want)
			rep.Correct = false
		}
	}
	rep.Metrics = m
	spans, _ := tr.snapshot()
	path := filepath.Join(".bench_build", fmt.Sprintf("e2ebench-spans-%s-%d.jsonl", spec.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, err
	}
	info := map[string]any{"jobs": len(ph.jobs), "shots": st.shots, "wall_s": ph.wall.Seconds(),
		"untraced_wall_s": base.wall.Seconds(), "host_steal": ph.steal, "spans": path, "profile_samples": t.samples}
	return rep, info, nil
}

// tally counts attempted and failed jobs, printing each failure; the
// report is correct only if every job passed.
func tally(p *phase) *report {
	rep := &report{Attempted: len(p.jobs)}
	for i, j := range p.jobs {
		if j.err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "e2ebench: job %d (%s/%d %s seed %d): %v\n", i, j.req.Workload, j.req.Param, j.req.Controller, j.req.Seed, j.err)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// passSummary aggregates the verified jobs of a pass.
type passSummary struct {
	shots, sites int
	jobMs        []float64
	firstMs      []float64
	feedbackUs   float64 // shot-weighted mean of the results' mean_latency_us
}

func summarize(p *phase) passSummary {
	var s passSummary
	var fb float64
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		s.shots += j.shots
		s.sites += j.sites
		s.jobMs = append(s.jobMs, ms(j.end.Sub(j.submit)))
		s.firstMs = append(s.firstMs, ms(j.firstShot.Sub(j.submit)))
		fb += j.result.MeanLatencyUs * float64(j.result.Shots)
	}
	if s.shots > 0 {
		s.feedbackUs = fb / float64(s.shots)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msPerShot(d time.Duration, shots int) float64 {
	if shots == 0 {
		return 0
	}
	return ms(d) / float64(shots)
}

func keepSet(idx []int) map[int]bool {
	out := map[int]bool{}
	for _, i := range idx {
		out[i] = true
	}
	return out
}

// tracedPass is the traced timed phase and what it measured.
type tracedPass struct {
	fleet         *fleet
	tr            *tracer
	startUs       float64
	before, after []scrape // per node, in fleet.all order
	journalBytes  int64
	samples       int
	layerNs       map[string]int64
}

// run drives the job list with every hook on: /metrics scraped before and
// after, the journal measured, and a CPU profile of the pass.
func (t *tracedPass) run(ctx context.Context, plan *jobPlan) (*phase, error) {
	var err error
	if t.before, err = t.fleet.scrapeAll(ctx); err != nil {
		return nil, err
	}
	j0, err := dirBytes(t.fleet.dataDir)
	if err != nil {
		return nil, err
	}
	t.startUs = t.tr.us(time.Now())
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ph, err := drive(ctx, t.fleet.front.base, plan.jobs, keepSet(plan.sample), t.tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if t.after, err = t.fleet.scrapeAll(ctx); err != nil {
		return nil, err
	}
	j1, err := dirBytes(t.fleet.dataDir)
	if err != nil {
		return nil, err
	}
	t.journalBytes = j1 - j0
	samples, err := decodeCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	t.samples = len(samples)
	t.layerNs = layerCPU(samples)
	return ph, nil
}

// scrapeAll scrapes every node's /metrics.
func (f *fleet) scrapeAll(ctx context.Context) ([]scrape, error) {
	out := make([]scrape, len(f.all))
	for i, n := range f.all {
		s, err := n.scrape(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// idleRSS is what the fleet keeps resident once the load is over: every
// node idle (hedge duplicates finished), a full collection run and freed
// memory returned to the OS. Unlike RSS sampled during the run, which
// follows the Go heap goal and so how many ~130 MiB calibrations happen
// to be in flight when a collection starts, it repeats from run to run,
// and it shows what job tables, journals and caches retain.
func idleRSS(ctx context.Context, f *fleet) (float64, error) {
	if err := f.waitIdle(ctx); err != nil {
		return 0, err
	}
	debug.FreeOSMemory()
	return rssMiB()
}

// calibrationAllocMiB measures the heap bytes one artery.New allocates,
// with nothing else running.
func calibrationAllocMiB() (float64, error) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	if _, err := artery.New(artery.WithSeed(1)); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), nil
}

// dirBytes sums the sizes of the regular files under dir ("" is 0).
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// filesystemOf names the filesystem holding path, for the run record.
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
