package main

// metricDef names one reported metric.
type metricDef struct {
	name, unit, note string
}

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off, that BENCHMARK.json gates: the same names and units.
// Times of CPU-bound work are CPU times, which a virtual machine's steal
// time does not inflate (see README.md).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "median set-up CPU time: task system + controller (lane-simple: + listen + both agents' first period)"},
	{"run_cpu_s", "s", "median CPU time (user+sys, all threads) of a run"},
	{"period_p50_us", "us", "median sample→rates latency: controller Step in thread CPU time (lane-simple: agents' report sent→rates received)"},
	{"alloc_mb", "MB", "median heap bytes allocated per run (TotalAlloc delta; lane-simple: whole repetition)"},
	{"max_rss_mb", "MB", "peak RSS of this process, which runs only this workload, over its first 5 repetitions"},
}

// reportedDefs are end-to-end metrics the benchmark prints but does not
// gate: host noise moves them by more than any bound BENCHMARK.json may
// set.
var reportedDefs = []metricDef{
	{"run_s", "s", "median wall time of a run: sweep points / 120-period trace / server return after its last period"},
	{"setup_wall_s", "s", "median set-up wall time"},
	{"period_p99_us", "us", "p99 of the sample→rates latency (the highest percentile with ≥10 samples beyond it, if p99 has fewer)"},
}

// perLayerDefs are the per-layer metrics of one traced repetition.
var perLayerDefs = []metricDef{
	{"workload.build_s", "s", "workload.* constructor"},
	{"core.new_s", "s", "core.New"},
	{"deucon.new_s", "s", "deucon.New"},
	{"core.steps", "count", "centralized controller steps"},
	{"core.busy_s", "s", "time inside core Step"},
	{"core.step_p50_us", "us", "median core Step"},
	{"core.step_p99_us", "us", "p99 core Step"},
	{"core.allocs_per_step", "allocs/step", "heap objects per sampled core Step"},
	{"core.outcome.ok", "count", "steps solved with the full constraint set"},
	{"core.outcome.relaxed", "count", "steps solved with relaxed output constraints"},
	{"core.outcome.degraded", "count", "steps resolved by best-iterate, regularized, or held"},
	{"deucon.steps", "count", "localized controller periods"},
	{"deucon.busy_s", "s", "time inside deucon Step"},
	{"deucon.step_p50_us", "us", "median deucon Step"},
	{"deucon.allocs_per_step", "allocs/step", "heap objects per deucon Step"},
	{"deucon.local.ok", "count", "local solves with the full constraint set"},
	{"deucon.local.relaxed", "count", "local solves with relaxed output constraints"},
	{"deucon.messages", "count", "neighbor plan messages"},
	{"sim.self_s", "s", "experiments.Run spans minus their controller-step children"},
	{"sim.jobs", "count", "subtask jobs completed"},
	{"sim.ns_per_job", "ns/job", "sim.self_s per completed job"},
	{"sim.allocs", "count", "heap objects allocated by the run outside controller steps"},
	{"agent.periods", "count", "periods the server stepped"},
	{"agent.missed_reports", "count", "member-periods stepped on a hold-last substitute"},
	{"agent.stale_samples", "count", "samples that arrived for an already-stepped period"},
	{"agent.frames_in", "count", "frames the server received"},
	{"agent.frames_out", "count", "frames the server queued"},
	{"agent.step_share", "ratio", "core.busy_s / traced run_s"},
	{"lane.write_calls", "count", "server-side net.Conn Write calls"},
	{"lane.read_calls", "count", "server-side net.Conn Read calls"},
	{"lane.bytes_out", "B", "bytes the server wrote"},
	{"lane.bytes_in", "B", "bytes the server read"},
	{"lane.write_busy_s", "s", "time inside server-side Write"},
	{"lane.writes_per_frame", "1/frame", "lane.write_calls / agent.frames_out"},
	{"lane.bytes_per_frame", "B/frame", "lane.bytes_out / agent.frames_out"},
	{"lane.encode_ns", "ns/call", "mean lane.Codec AppendEncode, server and agents"},
	{"go.gc_cycles", "count", "GC cycles during the traced repetition"},
	{"go.gc_pause_s", "s", "GC stop-the-world pause time"},
	{"go.sched_latency_p50_us", "us", "median goroutine runnable→running latency"},
	{"go.sched_latency_p99_us", "us", "p99 of the same"},
	{"trace.overhead", "ratio", "traced run_s / untraced run_s (wall)"},
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics,
// plus the period sample count and the highest percentile it supports.
func endToEnd(reps []*repResult, setups []cost, rss float64) map[string]float64 {
	var runs, cpus, allocs, setupCPU, setupWall []float64
	samples := make([][]float64, len(reps))
	for i, r := range reps {
		runs = append(runs, r.run.wall.Seconds())
		cpus = append(cpus, r.run.cpu.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/1e6)
		samples[i] = r.periodsUS
	}
	for _, c := range setups {
		setupCPU = append(setupCPU, c.cpu.Seconds())
		setupWall = append(setupWall, c.wall.Seconds())
	}
	m := map[string]float64{
		"setup_s":      median(setupCPU),
		"setup_wall_s": median(setupWall),
		"run_s":        median(runs),
		"run_cpu_s":    median(cpus),
		"alloc_mb":     median(allocs),
		"max_rss_mb":   rss,
	}
	m["period_p50_us"] = repPercentile(samples, 0.50)
	n := 0
	for _, s := range samples {
		n += len(s)
	}
	m["period_samples"] = float64(n)
	m["period_tail_q"] = tailQuantile(n)
	m["period_p99_us"] = repPercentile(samples, m["period_tail_q"])
	return m
}

// repPercentile is the q-quantile of per-repetition samples: the median
// over repetitions of each one's q-quantile when every repetition has
// enough samples for it under the sample-count rule — so a burst of host
// noise during one repetition moves only that repetition's value — and
// otherwise the q-quantile of all samples pooled.
func repPercentile(reps [][]float64, q float64) float64 {
	var pooled, perRep []float64
	each := len(reps) > 0
	for _, s := range reps {
		pooled = append(pooled, s...)
		each = each && tailOK(len(s), q)
		perRep = append(perRep, percentile(sortedCopy(s), q))
	}
	if each {
		return median(perRep)
	}
	return percentile(sortedCopy(pooled), q)
}

// perLayer derives the per-layer metrics of one traced repetition from
// its spans, the wrappers' counters, and runtime snapshots around it.
func perLayer(tr *repResult, ss *spanSet, rt0, rt1 rtSnap, untracedRun float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for k, v := range tr.layer {
		m[k] = v
	}
	secs := func(name string) float64 { return float64(ss.totalDur(ss.named(name))) / 1e9 }
	m["workload.build_s"] = secs("workload.build")
	m["core.new_s"] = secs("core.new")
	m["deucon.new_s"] = secs("deucon.new")
	for _, layer := range []string{"core", "deucon"} {
		ids := ss.named(layer + ".step")
		d := sortedCopy(ss.durationsUS(ids))
		m[layer+".steps"] = float64(len(ids))
		m[layer+".busy_s"] = float64(ss.totalDur(ids)) / 1e9
		m[layer+".step_p50_us"] = percentile(d, 0.50)
		if layer == "core" {
			m["core.step_p99_us"] = percentile(d, 0.99)
		}
	}
	if runs := ss.named("experiments.Run"); len(runs) > 0 {
		var self int64
		for _, i := range runs {
			self += ss.self(i)
		}
		m["sim.self_s"] = float64(self) / 1e9
		if jobs := m["sim.jobs"]; jobs > 0 {
			m["sim.ns_per_job"] = float64(self) / jobs
		}
		m["sim.allocs"] = float64(tr.runMallocs - tr.stepMallocs)
	}
	if m["agent.periods"] > 0 {
		m["agent.step_share"] = m["core.busy_s"] / tr.run.wall.Seconds()
	}
	m["lane.write_busy_s"] = secs("net.write")
	m["go.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	m["go.gc_pause_s"] = float64(rt1.pauseNS-rt0.pauseNS) / 1e9
	p50, _ := histQuantile(rt0.sched, rt1.sched, 0.50)
	p99, _ := histQuantile(rt0.sched, rt1.sched, 0.99)
	m["go.sched_latency_p50_us"] = p50 * 1e6
	m["go.sched_latency_p99_us"] = p99 * 1e6
	if untracedRun > 0 {
		m["trace.overhead"] = tr.run.wall.Seconds() / untracedRun
	}
	return m
}

// tailQuantile is the quantile period_p99_us reports for n samples: 0.99,
// or, when fewer than minTail samples would lie beyond it, the highest
// percentile n samples support (large1024-deucon's 120 periods per
// repetition support p95, not p99, at the repetitions one run holds).
func tailQuantile(n int) float64 {
	return min(0.99, max(highestPercentile(n), 0.5))
}
