package serve

// Sweep jobs: the asynchronous POST /v1/sweeps pipeline's kind. A sweep
// evaluates every point of its design space, journals each completed
// row to the WAL, and resumes from those rows after a restart — the
// journaled points are never re-evaluated.

import (
	"fmt"
	"log/slog"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/dse"
)

// sweepJob is the exhaustive kind.
type sweepJob struct {
	points []core.DesignPoint
	// replayed holds WAL-journaled results by original point index for a
	// resumed sweep: those points are never re-evaluated, the engine only
	// runs the complement. Immutable after Recover; nil for fresh jobs.
	replayed map[int]core.Result
}

// buildSweep derives a sweep job's options, space and points from its
// request (nil: the zero request).
func (m *Manager) buildSweep(req *SweepRequest, submit bool) (*Job, error) {
	if req == nil {
		req = &SweepRequest{}
	}
	opts := req.Options.apply(m.cfg.Defaults)
	if _, err := resolveScenario(&opts); err != nil {
		return nil, specError(submit, "scenario", err)
	}
	space, err := req.Space.space(opts)
	if err != nil {
		return nil, specError(submit, "space", err)
	}
	if n := space.Size(); submit && n > m.cfg.MaxSweepPoints {
		return nil, fmt.Errorf("%w: space enumerates %d points, limit %d",
			ErrBadRequest, n, m.cfg.MaxSweepPoints)
	}
	points := space.Points()
	return newJob(&sweepJob{points: points}, opts, len(points)), nil
}

func (k *sweepJob) name() string                   { return jobKindSweep }
func (k *sweepJob) route() string                  { return "/v1/sweeps/" }
func (k *sweepJob) counts(m *Manager) *jobCounts   { return &m.sweeps }
func (k *sweepJob) prepare(*Manager) error         { return nil }
func (k *sweepJob) walState(*Job, *walStateRecord) {}

func (k *sweepJob) attrs(bool) []slog.Attr {
	return []slog.Attr{slog.Int("points", len(k.points))}
}

// run sweeps the points not yet journaled. A resumed sweep evaluates
// only the complement of its journaled rows: remap maps complement
// indices back to original point indices so events, journaled rows and
// the merged result cloud all speak the original space. For fresh jobs
// remap is nil and the hook is a thin journaling wrapper around onPoint.
func (k *sweepJob) run(m *Manager, job *Job, engine Engine) (any, error) {
	pts := k.points
	var remap []int
	base := len(k.replayed)
	if base > 0 {
		remap = make([]int, 0, len(k.points)-base)
		pts = make([]core.DesignPoint, 0, len(k.points)-base)
		for i, p := range k.points {
			if _, ok := k.replayed[i]; !ok {
				remap = append(remap, i)
				pts = append(pts, p)
			}
		}
		m.logJob(job, "sweep resumed",
			slog.Int("replayed_rows", base), slog.Int("remaining", len(pts)))
	}
	// got captures results by original index; the hook runs under the
	// engine's completion lock, so no extra synchronisation is needed.
	got := make(map[int]core.Result, len(pts))
	hook := func(ev dse.Event) {
		orig := ev.Index
		if remap != nil && ev.Index >= 0 && ev.Index < len(remap) {
			orig = remap[ev.Index]
		}
		got[orig] = ev.Result
		m.journalRow(job, orig, ev.Result)
		ev.Index = orig
		ev.Done += base
		ev.Total = job.total
		job.onPoint(ev)
	}

	rs, err := engine.RunWithHook(job.ctx, pts, hook)
	if base > 0 {
		rs = k.merge(got)
	}
	return rs, err
}

// merge assembles a resumed job's result cloud — journaled rows plus
// freshly evaluated ones — in original point order, skipping indices
// that never completed (cancellation mid-resume).
func (k *sweepJob) merge(got map[int]core.Result) []core.Result {
	out := make([]core.Result, 0, len(k.replayed)+len(got))
	for i := range k.points {
		if r, ok := k.replayed[i]; ok {
			out = append(out, r)
		} else if r, ok := got[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// settle computes the outcome over whatever results exist. The "done"
// event also carries the engine's eval-duration quantiles, so a
// streaming client gets the latency story without a second round trip.
func (k *sweepJob) settle(_ *Manager, job *Job, out any, errMsg string) ([]byte, []slog.Attr, int) {
	rs, _ := out.([]core.Result)
	errs, partial := k.setResults(job, rs)
	var p50, p90, p99 float64
	if job.engine != nil { // nil when engine resolution itself failed
		snap := job.engine.Metrics()
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		p50, p90, p99 = ms(snap.P50Eval), ms(snap.P90Eval), ms(snap.P99Eval)
	}
	done := eventData(
		[]string{"state", "scenario", "done", "total", "partial", "errors", "error",
			"eval_p50_ms", "eval_p90_ms", "eval_p99_ms"},
		[]interface{}{string(job.state), job.opts.Scenario, len(rs), job.total,
			partial, errs, errMsg, p50, p90, p99})
	return done, []slog.Attr{slog.Int("points", len(rs)), slog.Int("total", job.total)}, errs
}

// setResults installs a terminal result cloud and its outcome, returning
// the degraded-row count and whether the cloud is partial. Callers hold
// the job lock.
func (k *sweepJob) setResults(job *Job, rs []core.Result) (errs int, partial bool) {
	for _, r := range rs {
		if r.Err != nil {
			errs++
		}
	}
	job.results = rs
	partial = job.state != StateCompleted || errs > 0
	if len(rs) > 0 || job.state == StateCompleted {
		job.outcome = outcomeOf(rs, job.total, partial, job.opts.MinAccuracy)
	}
	return errs, partial
}

// walRows rebuilds the row records of the result cloud; points are
// unique within a space, so a result maps back to its original index.
func (k *sweepJob) walRows(job *Job) []walRowRecord {
	idx := make(map[core.DesignPoint]int, len(k.points))
	for i, p := range k.points {
		idx[p] = i
	}
	var rows []walRowRecord
	for _, r := range job.results {
		if i, ok := idx[r.Point]; ok {
			rows = append(rows, walRowRecord{Job: job.ID, I: i, Result: walResultOf(r)})
		}
	}
	return rows
}

// restore rebuilds a terminal sweep from its journaled rows, exactly as
// finish left it, or attaches them to an in-flight one so dispatch
// evaluates only the complement.
func (k *sweepJob) restore(job *Job, rows map[int]core.Result, st *walStateRecord) (int, string, []slog.Attr) {
	if st == nil {
		if len(rows) > 0 {
			k.replayed = rows
		}
		return len(rows), "sweep resumed from wal",
			[]slog.Attr{slog.Int("replayed_rows", len(rows)), slog.Int("points", len(k.points))}
	}
	results := make([]core.Result, 0, len(rows))
	for i := range k.points {
		if r, ok := rows[i]; ok {
			results = append(results, r)
		}
	}
	job.done = len(results)
	k.setResults(job, results)
	return len(results), "sweep replayed from wal", []slog.Attr{slog.Int("rows", len(results))}
}
