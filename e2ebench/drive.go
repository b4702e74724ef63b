package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"artery/api"
	"artery/client"
)

// clients is the closed loop's width: two clients, one per CPU of the
// reference host, each sending its next job when its previous job's
// stream has ended — never more clients than the host has CPUs.
var clients = min(2, runtime.NumCPU())

// jobRecord is what one job of the timed phase delivered.
type jobRecord struct {
	req       api.Request
	submit    time.Time // client.Submit called
	firstShot time.Time // first shot event received
	end       time.Time // terminal stream line received
	shots     int       // shot events received
	sites     int       // feedback sites over all shots (one readout pulse each)
	result    *api.Result
	events    []api.ShotEvent // kept only for library-checked jobs
	err       error           // first output check the job failed
}

// phase is one timed pass over the job list.
type phase struct {
	jobs   []jobRecord
	wall   time.Duration
	cpu    time.Duration // process user+system CPU over the pass
	rssMiB []float64     // RSS samples taken through the pass
	steal  float64       // share of the host's CPU time the hypervisor stole during the pass
}

// drive runs the job list through the fleet's front node with a closed
// loop of `clients` clients. The first client starts the timed phase
// alone; the others join when its first job's first shot arrives, that
// is, once its calibration is over, so a run does not open with every
// client calibrating at once, a state the steady loop rarely returns to.
// With a tracer, client calls become spans and each job's queue wait is
// measured by polling its status.
func drive(ctx context.Context, base string, jobs []api.Request, keep map[int]bool, tr *tracer) (*phase, error) {
	cls := make([]*client.Client, clients)
	for i := range cls {
		var opts []client.Option
		if tr != nil {
			opts = append(opts, client.WithRetryHook(func(client.RetryInfo) { tr.noteRetry() }))
		}
		cl, err := client.New(base, opts...)
		if err != nil {
			return nil, err
		}
		cls[i] = cl
	}
	p := &phase{jobs: make([]jobRecord, len(jobs))}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, total0 := stealTicks()
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go sampleRSS(stopRSS, rssDone)

	var next atomic.Int64
	var wg sync.WaitGroup
	joined := make(chan struct{})
	var join sync.Once
	start := time.Now()
	for c, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c > 0 {
				select {
				case <-joined:
				case <-ctx.Done():
					return
				}
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				p.jobs[i] = runJob(ctx, cl, jobs[i], keep[i], tr, func() { join.Do(func() { close(joined) }) })
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	close(stopRSS)
	p.rssMiB = <-rssDone
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if steal1, total1 := stealTicks(); total1 > total0 {
		p.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return p, ctx.Err()
}

// runJob submits one job, follows its stream to the terminal line and
// checks everything the stream alone can prove: exactly `shots` events in
// shot order, each well formed, ending done, with a result whose
// aggregates are the fold of those events. It calls firstShot when the
// first shot event arrives, or when the job ends without one.
func runJob(ctx context.Context, cl *client.Client, req api.Request, keep bool, tr *tracer, firstShot func()) jobRecord {
	defer firstShot()
	rec := jobRecord{req: req, submit: time.Now()}
	jobSpan, sub := -1, -1
	if tr != nil {
		jobSpan = tr.begin("client.job", "", "", -1)
		sub = tr.begin("client.submit", "", "", jobSpan)
	}
	js, err := cl.Submit(ctx, req)
	accepted := time.Now()
	if tr != nil {
		tr.end(sub, 0, err == nil)
	}
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var polls sync.WaitGroup
	if tr != nil {
		tr.setJob(jobSpan, js.ID)
		tr.setJob(sub, js.ID)
		polls.Add(1)
		go func() {
			defer polls.Done()
			pollQueue(ctx, cl, js.ID, accepted, tr)
		}()
		defer polls.Wait()
	}
	streamSpan := -1
	if tr != nil {
		streamSpan = tr.begin("client.stream", "", js.ID, jobSpan)
	}
	rec.err = follow(ctx, cl, js.ID, &rec, keep, firstShot)
	rec.end = time.Now()
	if tr != nil {
		tr.end(streamSpan, 0, rec.err == nil)
		tr.end(jobSpan, 0, rec.err == nil)
	}
	return rec
}

// follow drains a job's stream into rec and checks it.
func follow(ctx context.Context, cl *client.Client, id string, rec *jobRecord, keep bool, firstShot func()) error {
	st, err := cl.Stream(ctx, id)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer st.Close()
	var fold resultFold
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if rec.shots == 0 {
			rec.firstShot = time.Now()
			firstShot()
		}
		if want := rec.req.ShotOffset + rec.shots; ev.Shot != want {
			return fmt.Errorf("event %d carries shot %d, want %d", rec.shots, ev.Shot, want)
		}
		if err := api.ValidateEvent(ev); err != nil {
			return err
		}
		rec.shots++
		rec.sites += ev.Sites
		fold.add(ev)
		if keep {
			rec.events = append(rec.events, ev)
		}
	}
	end := st.End()
	if end.State != api.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, end.State, end.Error)
	}
	if err := api.ValidateResult(end.Result); err != nil {
		return err
	}
	rec.result = end.Result
	if rec.shots != rec.req.Shots || end.Result.Shots != rec.req.Shots || end.Result.Canceled {
		return fmt.Errorf("job %s delivered %d events and a result of %d shots (canceled %v), want %d",
			id, rec.shots, end.Result.Shots, end.Result.Canceled, rec.req.Shots)
	}
	return fold.check(end.Result)
}

// resultFold recomputes a result's aggregates from its events with the
// engine's arithmetic: sums in shot order, then one division.
type resultFold struct {
	n, sites, commits, correct, fidN int
	latSum, fidSum                   float64
}

func (f *resultFold) add(ev api.ShotEvent) {
	f.n++
	f.latSum += ev.LatencyNs
	f.sites += ev.Sites
	f.commits += ev.Commits
	f.correct += ev.Correct
	if ev.Fidelity != nil {
		f.fidSum += *ev.Fidelity
		f.fidN++
	}
}

func (f *resultFold) check(res *api.Result) error {
	acc, rate := 1.0, 0.0
	if f.commits > 0 {
		acc = float64(f.correct) / float64(f.commits)
	}
	if f.sites > 0 {
		rate = float64(f.commits) / float64(f.sites)
	}
	fidOK := (res.Fidelity == nil) == (f.fidN == 0)
	if fidOK && f.fidN > 0 {
		fidOK = *res.Fidelity == f.fidSum/float64(f.fidN)
	}
	if res.MeanLatencyUs != (f.latSum/float64(f.n))/1000 || res.Accuracy != acc || res.CommitRate != rate || !fidOK {
		return fmt.Errorf("result aggregates differ from the fold of its %d events", f.n)
	}
	return nil
}

// pollQueue bounds how long a job waited in the admission queue from
// below: the time from the 202 to the sending of the last status poll
// that still read queued (0 if the first poll already read past it).
// Its resolution is one poll round trip, which grows to tens of
// milliseconds while calibrations keep both CPUs busy.
func pollQueue(ctx context.Context, cl *client.Client, id string, accepted time.Time, tr *tracer) {
	queued := 0.0
	for {
		sent := time.Now()
		js, err := cl.Job(ctx, id)
		if err != nil {
			return
		}
		if js.State != api.StateQueued {
			tr.noteQueue(queued)
			return
		}
		queued = ms(sent.Sub(accepted))
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// stealTicks reads the host-wide steal and total CPU ticks from
// /proc/stat (zeros where unavailable). Steal is CPU time the hypervisor
// gave to other guests; on a shared VM it is the main source of
// run-to-run noise in wall-clock metrics, so runs record it.
func stealTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// rssInterval spaces the RSS samples: ~20 per second is enough for a
// median and costs nothing measurable.
const rssInterval = 50 * time.Millisecond

// sampleRSS reads the process's resident set every rssInterval until
// stop closes, then sends the samples (MiB).
func sampleRSS(stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	t := time.NewTicker(rssInterval)
	defer t.Stop()
	for {
		if mib, err := rssMiB(); err == nil {
			samples = append(samples, mib)
		}
		select {
		case <-stop:
			out <- samples
			return
		case <-t.C:
		}
	}
}

// rssMiB reads the process's resident set size from /proc.
func rssMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: unexpected %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
