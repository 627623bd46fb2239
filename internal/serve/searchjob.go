package serve

// Search jobs: the asynchronous POST /v1/search pipeline's kind. A
// search job shares the whole lifecycle with a sweep job — tenant
// admission and weighted-fair dispatch, the event buffer and SSE
// replay, TTL eviction, cancellation, drain, WAL recovery — but runs
// the internal/search driver instead of an exhaustive sweep: a
// budget-bounded propose/observe loop that streams "front" events as
// the Pareto front grows and finishes with a budget-accounted outcome.

import (
	"context"
	"fmt"
	"log/slog"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/search"
)

// searchEventHeaders are the keys of "front" event payloads: the budget
// window, the fidelity rung the round ran at, and the front's size and
// hypervolume after it.
var searchEventHeaders = []string{
	"evaluations", "budget", "rung", "rung_name", "front_size", "hypervolume", "improved",
}

// searchJob is the goal-directed kind.
type searchJob struct {
	spec  search.Spec
	space dse.Space
	// probeOpts, when set, are the reduced-fidelity engine options of
	// the probe rung (nil = every evaluation runs at full fidelity).
	probeOpts *experiments.Options
	// probe is the probe rung prepare resolved, if any.
	probe []search.Fidelity
}

// buildSearch parses a search job's goal, space and budget from its
// request (nil: the zero request). A request without a budget gets a
// tenth of its space, clamped to MaxSearchEvaluations.
func (m *Manager) buildSearch(req *SearchRequest, submit bool) (*Job, error) {
	if req == nil {
		req = &SearchRequest{}
	}
	opts := req.Options.apply(m.cfg.Defaults)
	if _, err := resolveScenario(&opts); err != nil {
		return nil, specError(submit, "scenario", err)
	}
	spec, err := req.spec()
	if err != nil {
		return nil, specError(submit, "spec", err)
	}
	space, err := req.Space.space(opts)
	if err != nil {
		return nil, specError(submit, "space", err)
	}
	size := space.Size()
	if submit && size > m.cfg.MaxSweepPoints {
		return nil, fmt.Errorf("%w: space enumerates %d points, limit %d",
			ErrBadRequest, size, m.cfg.MaxSweepPoints)
	}
	if submit && req.ProbeRecords < 0 {
		return nil, fmt.Errorf("%w: probe_records must be non-negative, got %d",
			ErrBadRequest, req.ProbeRecords)
	}
	spec.Seed = req.Seed
	spec.MaxEvaluations = req.MaxEvaluations
	if spec.MaxEvaluations <= 0 {
		// The search's reason to exist: a tenth of the exhaustive count.
		spec.MaxEvaluations = min(max(size/10, 1), m.cfg.MaxSearchEvaluations)
	}
	if submit && spec.MaxEvaluations > m.cfg.MaxSearchEvaluations {
		return nil, fmt.Errorf("%w: max_evaluations %d exceeds the limit %d",
			ErrBadRequest, spec.MaxEvaluations, m.cfg.MaxSearchEvaluations)
	}
	if err := spec.Validate(); err != nil {
		return nil, specError(submit, "spec", err)
	}
	k := &searchJob{spec: spec, space: space}
	if req.ProbeRecords > 0 && req.ProbeRecords != opts.Records {
		probe := opts
		probe.Records = req.ProbeRecords
		k.probeOpts = &probe
	}
	return newJob(k, opts, spec.MaxEvaluations), nil
}

func (k *searchJob) name() string                 { return jobKindSearch }
func (k *searchJob) route() string                { return "/v1/search/" }
func (k *searchJob) counts(m *Manager) *jobCounts { return &m.searches }
func (k *searchJob) walRows(*Job) []walRowRecord  { return nil }

func (k *searchJob) attrs(accepted bool) []slog.Attr {
	attrs := []slog.Attr{
		slog.String("query", k.spec.Query()),
		slog.Int("budget", k.spec.MaxEvaluations),
	}
	if accepted {
		attrs = append(attrs, slog.Int("space", k.space.Size()))
	}
	return attrs
}

// prepare resolves the probe rung's engine, when the request asked for
// one, ahead of the full-fidelity engine.
func (k *searchJob) prepare(m *Manager) error {
	if k.probeOpts == nil {
		return nil
	}
	probe, err := m.engine(*k.probeOpts)
	if err != nil {
		return fmt.Errorf("probe engine: %w", err)
	}
	k.probe = []search.Fidelity{{Name: "probe", Eval: searchEvaluator(probe)}}
	return nil
}

// run drives the budgeted search, streaming "front" events as the
// Pareto front grows.
func (k *searchJob) run(m *Manager, job *Job, engine Engine) (any, error) {
	fids := append(k.probe, search.Fidelity{Name: "full", Eval: searchEvaluator(engine)})
	return search.Run(job.ctx, search.Config{
		Space:      k.space,
		Spec:       k.spec,
		Fidelities: fids,
		OnProgress: func(p search.Progress) { m.searchProgress(job, p) },
	})
}

// searchEvaluator adapts the serving Engine surface to the search
// driver's batch contract. Engines that batch natively (*dse.Sweep)
// are used directly; others are wrapped so a run-level failure degrades
// into per-point error rows — never a short slice.
func searchEvaluator(e Engine) search.Evaluator {
	if ev, ok := e.(search.Evaluator); ok {
		return ev
	}
	return engineEvaluator{e}
}

type engineEvaluator struct{ e Engine }

func (a engineEvaluator) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	rs, _, _ := runRows(ctx, a.e, pts)
	return rs
}

// searchProgress is the driver's per-round hook: it serialises one
// "front" SSE event, moves the job's progress window (evaluations spent
// against budget) and refreshes the manager's live gauges. Called
// serially from the driver goroutine.
func (m *Manager) searchProgress(j *Job, p search.Progress) {
	m.searchFrontSize.Store(int64(p.FrontSize))
	m.searchBudget.Store(int64(p.Budget - p.Evaluations))
	data := eventData(searchEventHeaders, []interface{}{
		p.Evaluations, p.Budget, p.Rung, p.RungName, p.FrontSize, p.Hypervolume, p.Improved,
	})
	j.mu.Lock()
	j.done, j.total = p.Evaluations, p.Budget
	j.appendEventLocked("front", data)
	j.mu.Unlock()
}

// settle accounts the budget exactly — evaluations + remaining ==
// budget, on the outcome, the gauges and the terminal event alike. A
// run that degraded rows or ran out of budget still lands in
// StateCompleted with partial: true — the front is then a sound lower
// bound, the same degradation contract sweeps honour.
func (k *searchJob) settle(m *Manager, job *Job, out any, errMsg string) ([]byte, []slog.Attr, int) {
	o, ok := out.(search.Outcome)
	if !ok {
		o = search.Outcome{Budget: k.spec.MaxEvaluations}
	}
	job.results = o.Front // /results streams the front as NDJSON rows
	job.done, job.total = o.Evaluations, o.Budget
	partial := o.Partial || job.state != StateCompleted
	job.searchOut = searchOutcomeOf(k.spec, o, partial)
	m.searchEvaluations.Add(int64(o.Evaluations))
	m.searchFrontSize.Store(int64(len(o.Front)))
	m.searchBudget.Store(int64(o.Budget - o.Evaluations))
	done := eventData(
		[]string{"state", "scenario", "evaluations", "budget", "budget_remaining",
			"front_size", "partial", "errors", "error"},
		[]interface{}{string(job.state), job.opts.Scenario, o.Evaluations, o.Budget,
			o.Budget - o.Evaluations, len(o.Front), partial, o.Errors, errMsg})
	return done, []slog.Attr{
		slog.Int("evaluations", o.Evaluations),
		slog.Int("budget", o.Budget),
		slog.Int("front", len(o.Front)),
	}, o.Errors
}

// walState journals the outcome and the front: a search's evaluations
// are not row-journaled, so its terminal record carries the answer.
func (k *searchJob) walState(job *Job, rec *walStateRecord) {
	rec.Search = job.searchOut
	rec.Front = make([]walResult, len(job.results))
	for i, r := range job.results {
		rec.Front[i] = walResultOf(r)
	}
}

// restore replays a terminal search with its journaled outcome and
// front. An in-flight search re-runs from scratch: the driver is
// deterministic, and its evaluations flow through the shared
// memoisation cache anyway.
func (k *searchJob) restore(job *Job, _ map[int]core.Result, st *walStateRecord) (int, string, []slog.Attr) {
	if st == nil {
		return 0, "search restarted from wal", []slog.Attr{slog.Int("budget", k.spec.MaxEvaluations)}
	}
	job.searchOut = st.Search
	job.results = make([]core.Result, len(st.Front))
	for i, w := range st.Front {
		job.results[i] = w.result()
	}
	if st.Search != nil {
		job.done, job.total = st.Search.Evaluations, st.Search.Budget
	}
	return 0, "search replayed from wal", nil
}
