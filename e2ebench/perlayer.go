package main

import (
	"fmt"

	"artery/api"
)

// layerMetrics turns the traced pass's profile, spans and scrapes into the
// per-layer metrics. Busy time is CPU ms per useful shot: the process CPU
// of the pass, split across layers in proportion to their profile
// samples, so the *.cpu_ms_per_shot rows sum to trace.cpu_ms_per_shot.
func (t *tracedPass) layerMetrics(ph *phase, plan *jobPlan) (map[string]metric, error) {
	s := summarize(ph)
	if s.shots == 0 {
		return nil, fmt.Errorf("traced pass verified no shots")
	}
	shots, jobs := float64(s.shots), float64(len(plan.jobs))
	m := map[string]metric{
		"trace.cpu_ms_per_shot": {msPerShot(ph.cpu, s.shots), "ms"},
		"runtime.rss_mb":        {median(ph.rssMiB), "MiB"},
	}
	var profNs int64
	for _, ns := range t.layerNs {
		profNs += ns
	}
	for _, l := range layerOrder {
		v := 0.0
		if profNs > 0 {
			v = msPerShot(ph.cpu, s.shots) * float64(t.layerNs[l]) / float64(profNs)
		}
		m[cpuMetricName(l)] = metric{v, "ms"}
	}

	f := t.fleet
	front := indexOf(f.all, f.front)
	started := 0.0
	for _, n := range f.exec {
		i := indexOf(f.all, n)
		started += delta(t.before[i], t.after[i], "artery_server_jobs_submitted_total")
	}
	m["artery.calibrations_per_job"] = metric{started / jobs, "count"}
	m["readout.pulses_per_shot"] = metric{float64(s.sites) / shots, "count"}

	spans, subs := t.tr.snapshot()
	var timed []span
	for _, sp := range spans {
		if sp.StartUs >= t.startUs {
			timed = append(timed, sp)
		}
	}
	var timedSubs []submission
	for _, sub := range subs {
		if sub.atUs >= t.startUs {
			timedSubs = append(timedSubs, sub)
		}
	}
	m["core.replay_per_useful"] = metric{float64(executedShots(timedSubs, f)) / shots, "ratio"}

	var submitMs, shardMs []float64
	var eventBytes, subeventBytes int64
	dispatches := 0
	submits := map[string]span{} // backend host + job id -> its submit span
	for _, sp := range timed {
		switch {
		case sp.Name == "client.submit":
			submitMs = append(submitMs, (sp.EndUs-sp.StartUs)/1e3)
		case sp.Name == "server.stream" && sp.Node == f.front.name:
			eventBytes += sp.Bytes
		case sp.Name == "cluster.submit" && sp.OK:
			dispatches++
			submits[sp.Node+"/"+sp.Job] = sp
		}
	}
	for _, sp := range timed {
		if sp.Name != "cluster.stream" {
			continue
		}
		subeventBytes += sp.Bytes
		if sub, ok := submits[sp.Node+"/"+sp.Job]; ok && sp.OK {
			shardMs = append(shardMs, (sp.EndUs-sub.StartUs)/1e3)
		}
	}
	t.tr.mu.Lock()
	queueMs, retries := append([]float64(nil), t.tr.queueMs...), t.tr.retries
	t.tr.mu.Unlock()

	for _, p := range []struct {
		name string
		xs   []float64
	}{{"client.submit_ms_p50", submitMs}, {"server.queue_ms_p50", queueMs}, {"cluster.shard_ms_p50", shardMs}} {
		v := 0.0
		if len(p.xs) > 0 {
			var err error
			if v, err = percentile(p.xs, 0.5); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		m[p.name] = metric{v, "ms"}
	}
	m["api.event_bytes"] = metric{float64(eventBytes) / shots, "B"}
	m["client.retries_per_job"] = metric{float64(retries) / jobs, "count"}

	shards := 0.0
	if f.store != nil {
		shards = float64(len(f.exec))
	}
	m["cluster.dispatches_per_shard"] = metric{ratio(float64(dispatches), jobs*shards), "count"}
	b, a := t.before[front], t.after[front]
	m["cluster.hedge_win_ratio"] = metric{ratio(delta(b, a, "artery_cluster_hedge_wins_total"), delta(b, a, "artery_cluster_hedges_total")), "ratio"}
	m["cluster.subevent_bytes"] = metric{float64(subeventBytes) / shots, "B"}

	appendUs := 0.0
	if f.store != nil {
		q, _, err := histQuantile(b, a, "artery_store_append_seconds", 0.5)
		if err != nil {
			return nil, err
		}
		appendUs = q * 1e6
	}
	m["store.append_us_p50"] = metric{appendUs, "us"}
	m["store.bytes_per_shot"] = metric{float64(t.journalBytes) / shots, "B"}
	m["store.fsyncs_per_job"] = metric{delta(b, a, "artery_store_fsyncs_total") / jobs, "count"}
	return m, nil
}

// cpuMetricName names a layer's busy-time metric.
func cpuMetricName(layer string) string {
	switch layer {
	case "artery.calibrate", "readout.synth", "readout.classify", "runtime.gc":
		return layer + "_cpu_ms_per_shot"
	}
	return layer + ".cpu_ms_per_shot"
}

// executedShots counts the shots the engine ran for the pass's jobs,
// warm-up replay included, from the submissions the executing nodes
// accepted. On a single node every submission is a user job. A backend
// sub-request that repeats a (request, range) already dispatched is a
// hedge or a retry, not a primary dispatch, and is not counted.
func executedShots(subs []submission, f *fleet) int {
	exec := map[string]bool{}
	for _, n := range f.exec {
		exec[n.name] = true
	}
	seen := map[string]bool{}
	n := 0
	for _, s := range subs {
		if !exec[s.node] {
			continue
		}
		if s.node != f.front.name {
			key := fmt.Sprintf("%s/%d/%s/%d/%d/%d", s.req.Workload, s.req.Param, s.req.Controller, s.req.Seed, s.req.ShotOffset, s.req.Shots)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		n += engineShots(s.req)
	}
	return n
}

// engineShots is how many shots the engine runs for one request: a
// sequential controller (ARTERY learns shot by shot) replays the prefix
// [0, shot_offset) before its range; the baselines skip it.
func engineShots(req api.Request) int {
	if req.Controller == "" || req.Controller == "ARTERY" {
		return req.ShotOffset + req.Shots
	}
	return req.Shots
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func indexOf(nodes []*node, n *node) int {
	for i, x := range nodes {
		if x == n {
			return i
		}
	}
	return -1
}
