package main

import (
	"fmt"
	"io"

	"efficsense/internal/core"
)

// sweepAccount splits the mean sweep wall time (submit → last NDJSON
// byte, as the client saw it) over the layers the traced run measured.
// The engine-span parts are unions of wall-clock intervals, so they
// never count two parallel workers twice.
type sweepAccount struct {
	n         int
	wall      float64 // ms, client-measured
	engine    float64 // Engine.RunWithHook span
	core      float64 // evaluator calls
	cache     float64 // cache operations outside evaluator calls
	hook      float64 // the job's per-point hook: SSE event + WAL row append
	dseSelf   float64 // the rest of the engine span
	admit     float64 // POST /v1/sweeps handler entry → engine run start
	walFsync  float64 // terminal-state fsync (replayed cost × count)
	ndjson    float64 // result rendering (replayed cost × rows)
	uncovered float64 // wall minus everything above
	appends   float64 // WAL appends per sweep
	fsyncs    float64 // WAL fsyncs per sweep
}

func accountSweeps(p *pass, tr *tracer, stages map[string]float64) sweepAccount {
	var a sweepAccount
	tr.mu.Lock()
	runs := append([]runRecord(nil), tr.sweeps...)
	submits := append([]int64(nil), tr.submits...)
	tr.mu.Unlock()
	a.n = min(len(p.sweeps), len(runs), len(submits))
	if a.n == 0 {
		return a
	}
	var rows int
	for i := 0; i < a.n; i++ {
		r := runs[i]
		a.wall += p.sweeps[i].latency.Seconds() * 1e3
		a.engine += float64(r.dur) / 1e6
		a.core += float64(r.evalCov) / 1e6
		a.cache += float64(r.cacheCov) / 1e6
		a.hook += float64(r.hookCov) / 1e6
		a.dseSelf += float64(r.self) / 1e6
		a.admit += float64(r.start-submits[i]) / 1e6
		rows += len(p.sweeps[i].rows)
	}
	n := float64(a.n)
	for _, f := range []*float64{&a.wall, &a.engine, &a.core, &a.cache, &a.hook, &a.dseSelf, &a.admit} {
		*f /= n
	}
	sweeps := float64(len(p.sweeps))
	a.appends = float64(p.walAfter.Appends-p.walBefore.Appends) / sweeps
	a.fsyncs = float64(p.walAfter.Fsyncs-p.walBefore.Fsyncs) / sweeps
	// One fsync per sweep (the job record) lands inside the admission
	// wait; the terminal-state fsync follows the engine run.
	a.walFsync = stages["wal.fsync_ms"] * max(a.fsyncs-1, 0)
	a.ndjson = stages["report.ndjson_us_per_row"] * float64(rows) / n / 1e3
	a.uncovered = a.wall - a.core - a.cache - a.hook - a.dseSelf - a.admit - a.walFsync - a.ndjson
	return a
}

func printSweepAccounting(w io.Writer, wl workload, p *pass, tr *tracer, stages map[string]float64) {
	if !wl.sweep {
		return
	}
	a := accountSweeps(p, tr, stages)
	if a.n == 0 {
		return
	}
	fmt.Fprintf(w, "  sweep time accounting (mean of %d traced sweeps): wall %.1f ms\n", a.n, a.wall)
	walRows := stages["wal.append_us"] * max(a.appends-a.fsyncs, 0) / 1e3
	for _, part := range []struct {
		name string
		ms   float64
	}{
		{"core evaluator (union of evaluator calls)", a.core},
		{"cache operations outside the evaluator", a.cache},
		{fmt.Sprintf("job hook: SSE event + WAL row append (WAL est. %.2f ms)", walRows), a.hook},
		{"dse self (rest of the engine span)", a.dseSelf},
		{"serve admission wait (incl. job-record fsync)", a.admit},
		{"WAL terminal-state fsync (replayed cost)", a.walFsync},
		{"NDJSON rendering (replayed cost)", a.ndjson},
		{"uncovered remainder (HTTP, SSE, client)", a.uncovered},
	} {
		fmt.Fprintf(w, "    %-62s %9.2f ms %6.2f%%\n", part.name, part.ms, part.ms/a.wall*100)
	}
}

// perLayer assembles the per-layer metrics of a traced pass.
func perLayer(w workload, p *pass, tr *tracer, stages map[string]float64, overhead map[string]float64) map[string]metric {
	out := make(map[string]metric)
	set := func(name string, v float64, n int64, note string) {
		out[name] = metric{value: v, n: int(n), note: note}
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	reqs := tr.evalReqs.Load()
	set("serve.eval_self_us", ratio(tr.evalReqDur.Load()-tr.evalReqEngine.Load(), reqs)/1e3, reqs,
		"/v1/evaluate handler span minus its engine span")
	a := accountSweeps(p, tr, stages)
	set("serve.sweep_overhead_ms", a.wall-a.engine, int64(a.n), "client sweep latency minus engine span")
	set("serve.admit_wait_ms", a.admit, int64(a.n), "submit handler entry to engine run start")

	points := tr.runPoints.Load()
	set("dse.run_self_us_per_point", ratio(tr.runSelf.Load(), points)/1e3, points,
		"engine span minus evaluator, cache and hook intervals")
	batches := tr.batches.Load()
	set("dse.batches", float64(batches), batches, "EvaluateBatch calls")
	set("dse.points_per_batch", ratio(tr.batchPoints.Load(), batches), batches, "")

	lookups := tr.cacheGets.Load() + tr.cacheDos.Load()
	hits := tr.cacheGetHits.Load() + tr.cacheDoHits.Load()
	set("cache.hit_ratio", ratio(hits, lookups), lookups, fmt.Sprintf("%d hits of %d lookups", hits, lookups))
	set("cache.lookups", float64(lookups), lookups, "Get and Do calls")
	ev := p.lruAfter.Evictions - p.lruBefore.Evictions
	set("cache.evictions", float64(ev), ev, "")
	set("cache.lookup_us", ratio(tr.cacheHitDur.Load(), hits)/1e3, hits, "hit lookups")

	for _, arch := range core.Architectures() {
		name := "core.eval_ms_per_point." + arch.String()
		at := tr.archTime(arch)
		if at.points == 0 {
			set(name, 0, 0, "no cold point of this architecture")
			continue
		}
		set(name, float64(at.dur)/1e6/float64(at.points), int64(at.points), "served evaluator calls")
	}
	singles := tr.singles.Load()
	set("core.points_per_group", ratio(tr.batchPoints.Load()+singles, tr.batchGroups.Load()+singles),
		tr.batchGroups.Load()+singles, "served evaluator calls")

	for _, nu := range perLayerUnits {
		if v, ok := stages[nu[0]]; ok {
			set(nu[0], v, 0, "replayed")
		}
	}
	if w.sweep && len(p.sweeps) > 0 {
		set("wal.appends_per_sweep", a.appends, int64(len(p.sweeps)), "Log.Stats delta")
		set("wal.fsyncs_per_sweep", a.fsyncs, int64(len(p.sweeps)), "Log.Stats delta")
		set("sweep.wall_ms", a.wall, int64(a.n), "")
		set("sweep.uncovered_ms", a.uncovered, int64(a.n), "wall not attributed to a layer")
	}
	for _, k := range []string{"ops_per_s", "p50_ms", "p99_ms"} {
		set("trace.overhead_pct."+k, overhead[k], 0, "traced minus untraced")
	}
	return out
}
