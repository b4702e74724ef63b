package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"artery/api"
)

// workloadSpec is one benchmark workload: which fleet it runs on and how
// its fixed job list is generated from the workload seed.
type workloadSpec struct {
	name    string
	sharded bool
	// jobsPerSec is the workload's throughput on the reference host (2
	// vCPUs); the job list holds jobsPerSec × --seconds jobs, so a run
	// lasts about --seconds while every run with the same arguments does
	// exactly the same work.
	jobsPerSec float64
	// shots is every job's shot count.
	shots int
	// sample is how many distinct requests per run are re-run through the
	// library to compare result and event bytes.
	sample int
	// request builds job i's request; seed is a fresh per-job draw.
	request func(i int, seed uint64, sweep []api.Request) api.Request
	// warmShots sizes the warm-up jobs.
	warmShots int
	// exact are per-layer counts the requests fix; a traced run that
	// measures anything else fails.
	exact map[string]float64
}

// sweepControllers and sweepWorkloads span sweep-small. The controller
// list is fixed here, not read from the program, so the generated inputs
// never change under the program.
var (
	sweepControllers = []string{"ARTERY", "QubiC", "HERQULES", "Salathe et al.", "Reuer et al."}
	sweepWorkloads   = []string{"qrw", "rcnot", "dqt", "rusqnn", "reset", "msi", "eswap"}
	sweepParams      = []int{2, 3}
)

// Why each workload exists is recorded in README.md beside this file.
var workloads = map[string]*workloadSpec{
	"sweep-small": {
		name: "sweep-small", jobsPerSec: 3.2, shots: 64, sample: 3, warmShots: 64,
		exact:   map[string]float64{"core.replay_per_useful": 1, "artery.calibrations_per_job": 1},
		request: func(i int, _ uint64, sweep []api.Request) api.Request { return sweep[i%len(sweep)] },
	},
	"surface-d15": {
		name: "surface-d15", jobsPerSec: 1.0, shots: 16, sample: 2, warmShots: 2,
		exact: map[string]float64{"readout.pulses_per_shot": 448, "core.replay_per_useful": 1, "artery.calibrations_per_job": 1},
		request: func(_ int, seed uint64, _ []api.Request) api.Request {
			// The backend is explicit: under "auto" the device's T1/T2 is
			// not Clifford-safe, so the engine would run latency-only
			// physics and the tableau would never execute.
			return api.Request{Workload: "surface", Param: 15, Controller: "ARTERY", Seed: seed,
				Options: &api.RequestOptions{Backend: "stabilizer"}}
		},
	},
	"sharded-durable": {
		name: "sharded-durable", sharded: true, jobsPerSec: 0.9, shots: 1024, sample: 2, warmShots: 64,
		// Two ARTERY shards of an even range: the second replays the
		// first's range as warm-up, so 1.5 shots run per useful shot.
		exact: map[string]float64{"readout.pulses_per_shot": 5, "core.replay_per_useful": 1.5},
		request: func(_ int, seed uint64, _ []api.Request) api.Request {
			off := false
			return api.Request{Workload: "qrw", Param: 5, Controller: "ARTERY", Seed: seed,
				Options: &api.RequestOptions{StateSim: &off}}
		},
	},
}

// jobPlan is everything a run submits, fixed by (workload, seed, seconds).
type jobPlan struct {
	jobs   []api.Request
	warm   []api.Request // one per job slot of the front node
	sample []int         // indices into jobs of the library-checked requests
}

// minJobs leaves minBeyond jobs beyond every per-job median.
const minJobs = 2 * minBeyond

// plan generates the workload's job list from the seed.
func (w *workloadSpec) plan(seed uint64, seconds int) (*jobPlan, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rand.New(rand.NewPCG(seed, h.Sum64()))
	n := max(minJobs, int(math.Round(w.jobsPerSec*float64(seconds))))

	// One request seed for the whole sweep, as a user's sweep would have.
	var sweep []api.Request
	sweepSeed := nonzero(r)
	for _, wl := range sweepWorkloads {
		for _, p := range sweepParams {
			for _, c := range sweepControllers {
				sweep = append(sweep, api.Request{Workload: wl, Param: p, Controller: c, Shots: 64, Seed: sweepSeed})
			}
		}
	}
	r.Shuffle(len(sweep), func(i, j int) { sweep[i], sweep[j] = sweep[j], sweep[i] })

	used := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			s := nonzero(r)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	p := &jobPlan{}
	for i := 0; i < n; i++ {
		req := w.request(i, fresh(), sweep)
		req.Shots = w.shots
		p.jobs = append(p.jobs, req)
	}
	for i := 0; i < defMaxJobs; i++ {
		req := w.request(i, fresh(), sweep)
		req.Shots = w.warmShots
		p.warm = append(p.warm, req)
	}
	for _, req := range append(append([]api.Request(nil), p.jobs...), p.warm...) {
		if _, err := api.ValidateRequest(req, defMaxShots); err != nil {
			return nil, fmt.Errorf("%s: generated request invalid: %w", w.name, err)
		}
	}
	// Library checks cover distinct requests: sweep-small repeats its
	// sweep once the list is longer than it.
	var distinct []int
	seen := map[string]bool{}
	for i, req := range p.jobs {
		key, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			distinct = append(distinct, i)
		}
	}
	for _, k := range r.Perm(len(distinct))[:min(w.sample, len(distinct))] {
		p.sample = append(p.sample, distinct[k])
	}
	return p, nil
}

func nonzero(r *rand.Rand) uint64 {
	for {
		if s := r.Uint64(); s != 0 {
			return s
		}
	}
}
