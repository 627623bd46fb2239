package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/cluster"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/fault"
	"efficsense/internal/obs"
	"efficsense/internal/report"
	"efficsense/internal/scenario"
	"efficsense/internal/wal"
)

// JobState is the lifecycle of an asynchronous sweep job.
type JobState string

const (
	// StatePending: submitted, slot held, evaluator not yet ready.
	StatePending JobState = "pending"
	// StateRunning: the engine is evaluating points.
	StateRunning JobState = "running"
	// StateCompleted: every point evaluated; the outcome is final.
	StateCompleted JobState = "completed"
	// StateCancelled: stopped by DELETE; the outcome holds the partial
	// results completed before cancellation.
	StateCancelled JobState = "cancelled"
	// StateFailed: the suite could not be built or the run errored.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateCompleted || s == StateCancelled || s == StateFailed
}

// resolveScenario looks the option set's scenario up and canonicalises
// the name in place (empty → the default's registered name), so
// engine-key derivation and status rendering always see the same
// identity regardless of how the request spelled it.
func resolveScenario(opts *experiments.Options) (*scenario.Scenario, error) {
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return nil, err
	}
	opts.Scenario = scn.Name
	return scn, nil
}

// Scenario resolves the workload a request's options select, with the
// server defaults applied — used to scope point parsing before a
// synchronous evaluation (/v1/evaluate and the peer fill).
func (m *Manager) Scenario(spec *OptionsSpec) (*scenario.Scenario, error) {
	opts := spec.apply(m.cfg.Defaults)
	return scenario.Lookup(opts.Scenario)
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrSaturated: every job slot is busy (429 + Retry-After).
	ErrSaturated = errors.New("serve: all sweep slots are busy")
	// ErrShuttingDown: the manager is draining (503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrNotFound: unknown job ID (404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrBadRequest wraps spec validation failures (400).
	ErrBadRequest = errors.New("serve: invalid request")
)

// ManagerConfig sizes a job Manager. The zero value of every field picks
// a sensible default except Engines, which is required.
type ManagerConfig struct {
	// Defaults are the base suite options; request options override them
	// field by field.
	Defaults experiments.Options
	// Engines resolves option sets to sweep engines
	// ((*SuiteEngines).Engine in production).
	Engines EngineFunc
	// Cache, if set, is reported under /metrics (pass the SuiteEngines
	// shared cache). Both the bounded *cache.LRU (occupancy, capacity,
	// evictions, singleflight shares) and the unbounded *dse.MemoryCache
	// (occupancy, hit/miss) are understood.
	Cache dse.Cache
	// MaxConcurrentJobs bounds simultaneously running sweeps (default 2).
	// Submissions beyond it are rejected with ErrSaturated — the caller
	// retries after Retry-After — rather than queued, so a burst cannot
	// build unbounded state.
	MaxConcurrentJobs int
	// JobTTL is how long finished jobs stay queryable (default 15m).
	JobTTL time.Duration
	// MaxSweepPoints rejects spaces bigger than this (default 100000).
	MaxSweepPoints int
	// MaxSearchEvaluations caps a search job's evaluation budget
	// (default 20000): requests asking for more are rejected, and a
	// request without a budget defaults to a tenth of its space,
	// clamped to this.
	MaxSearchEvaluations int
	// EvalTimeout caps the synchronous /v1/evaluate deadline (default 2m).
	EvalTimeout time.Duration
	// Log receives structured job lifecycle records (accepted, started,
	// finished, cancel requested), each carrying job_id and the
	// submitting request's request_id so a slow sweep correlates back to
	// the call that created it. nil disables lifecycle logging.
	Log *slog.Logger
	// Tenancy shapes traffic per tenant (API key): submission and
	// evaluation token buckets, concurrency and queue quotas, and
	// weighted-fair dispatch of queued jobs. The zero value reproduces
	// the pre-tenancy contract: one default tenant, no rate limits, no
	// queueing.
	Tenancy TenantPolicy
	// Cluster, when set, puts the manager in fleet mode: job IDs embed
	// this node's name so any member can redirect a request to the job's
	// accepting node (sticky routing), /v1/cluster and the
	// efficsense_cluster_* series go live, and the peer-protocol
	// endpoint serves the keyspace segment this node owns. Pass the same
	// client given to SuiteEngines.UseCluster.
	Cluster *cluster.Peers
	// WAL, when set, makes jobs durable: specs and completed result rows
	// are journaled (fsync on job-state transitions), Recover replays
	// terminal jobs as history and resumes in-flight sweeps from their
	// last journaled row, and Shutdown compacts the journal. The Manager
	// owns the log once passed: Shutdown closes it.
	WAL *wal.Log
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 100000
	}
	if c.MaxSearchEvaluations <= 0 {
		c.MaxSearchEvaluations = 20000
	}
	if c.EvalTimeout <= 0 {
		c.EvalTimeout = 2 * time.Minute
	}
	return c
}

// Manager owns the server's sweep jobs: it admits them through
// per-tenant token buckets and quotas, dispatches queued work through a
// weighted-fair scheduler into a bounded pool of job slots, runs each
// job against the shared engine layer, buffers per-point events for SSE
// replay, journals specs and rows to the WAL (when configured), evicts
// finished jobs after a TTL and drains cleanly on shutdown.
type Manager struct {
	cfg ManagerConfig

	mu      sync.Mutex
	jobs    map[string]*Job
	engines map[Engine]struct{}
	seq     int64
	closed  bool
	wg      sync.WaitGroup
	// Traffic shaping: per-tenant state (buckets, quotas, queues), the
	// count of occupied job slots, the stride scheduler's virtual time,
	// and the TTL-eviction timers (stopped on Shutdown so a drained
	// manager leaks no timers into embedders or tests).
	tenants     map[string]*tenantState
	runningJobs int
	vtime       float64
	timers      map[string]*time.Timer
	// Durability counters (efficsense_wal_* series): jobs replayed as
	// history, sweeps resumed mid-flight, rows restored from the journal
	// instead of re-evaluated.
	walReplayedJobs atomic.Int64
	walResumedJobs  atomic.Int64
	walReplayedRows atomic.Int64

	rejected, evaluations atomic.Int64
	// Lifecycle accounting per job kind.
	sweeps, searches jobCounts

	// Search-job accounting beyond the lifecycle: the total evaluation
	// spend of every search driver, and two live gauges tracking the
	// most recent search round (front size, unspent budget).
	searchEvaluations             atomic.Int64
	searchFrontSize, searchBudget atomic.Int64
}

// jobCounts is one job kind's lifecycle accounting.
type jobCounts struct {
	submitted, completed, cancelled, failed atomic.Int64
}

// NewManager builds a Manager; cfg.Engines must be set.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Engines == nil {
		return nil, errors.New("serve: ManagerConfig.Engines is required")
	}
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		engines: make(map[Engine]struct{}),
		tenants: make(map[string]*tenantState),
		timers:  make(map[string]*time.Timer),
	}, nil
}

// JobEvent is one buffered job event, ready for SSE framing: ID is the
// per-job monotonic sequence number (the SSE id, so Last-Event-ID
// resumption replays exactly the missed suffix), Name the SSE event name
// ("state", "point" or "done") and Data a single-line JSON payload.
type JobEvent struct {
	ID   int
	Name string
	Data []byte
}

// pointEventHeaders are the keys of "point" event payloads: the progress
// window plus the ResultHeaders columns the CSV/NDJSON emitters share.
var pointEventHeaders = func() []string {
	h := []string{"done", "total", "cached", "duration_ms"}
	h = append(h, experiments.ResultHeaders...)
	return append(h, "err")
}()

func pointEventRow(ev dse.Event) []interface{} {
	row := []interface{}{ev.Done, ev.Total, ev.Cached,
		float64(ev.Duration) / float64(time.Millisecond)}
	row = append(row, experiments.ResultRow(ev.Result)...)
	errStr := ""
	if ev.Result.Err != nil {
		errStr = ev.Result.Err.Error()
	}
	return append(row, errStr)
}

// Job kinds: the job-ID prefix, the log-message prefix and the WAL
// job kind of each jobKind implementation.
const (
	jobKindSweep  = "sweep"
	jobKindSearch = "search"
)

// jobKind is what one kind of job brings to the shared lifecycle —
// admission, run prologue, terminal classification and WAL recovery
// live once, in jobs.go and durable.go. *sweepJob runs an exhaustive,
// row-journaled sweep (sweepjob.go); *searchJob runs the budgeted
// search driver (searchjob.go).
type jobKind interface {
	// name is jobKindSweep or jobKindSearch.
	name() string
	// route is the URL prefix of the job's resources.
	route() string
	// counts is the manager's lifecycle accounting for the kind.
	counts(m *Manager) *jobCounts
	// attrs are the kind's attributes on the "accepted" log record
	// (accepted) or the "started" one.
	attrs(accepted bool) []slog.Attr
	// prepare resolves any engine the body needs besides the job's own;
	// the run prologue calls it first.
	prepare(m *Manager) error
	// run is the job body. out is the kind's raw outcome, handed back to
	// settle.
	run(m *Manager, job *Job, engine Engine) (out any, err error)
	// settle lands the outcome on the job (nil when the body never
	// returned one) under the job lock, after the terminal state is set.
	// It returns the "done" event payload, the kind's "finished" log
	// attributes and the count of degraded rows.
	settle(m *Manager, job *Job, out any, errMsg string) (done []byte, attrs []slog.Attr, degraded int)
	// walState adds the kind's terminal payload to the state record;
	// walRows rebuilds the row records a compacted journal keeps. Both
	// run under the job lock.
	walState(job *Job, rec *walStateRecord)
	walRows(job *Job) []walRowRecord
	// restore rebuilds the kind's part of a journaled job: terminal
	// history from rows and st, or (st nil) an in-flight job about to be
	// re-enqueued. It returns the rows restored instead of re-evaluated
	// and the kind's recovery log record.
	restore(job *Job, rows map[int]core.Result, st *walStateRecord) (replayedRows int, msg string, attrs []slog.Attr)
}

// Job is one asynchronous job: an exhaustive sweep or a goal-directed
// search, by kind.
type Job struct {
	ID string
	// requestID is the X-Request-ID of the submitting request, immutable
	// after Submit: status responses and every lifecycle log line carry
	// it, so "which call started this sweep" is always answerable.
	requestID string
	kind      jobKind
	// tenant is the submitting tenant's identity (API key, or
	// DefaultTenant), immutable after Submit: quota release, fairness
	// accounting and the status response all key on it.
	tenant string
	// walJob is the journaled job record (nil when durability is off),
	// re-emitted verbatim by the clean-shutdown compaction. Immutable
	// after Submit/Recover.
	walJob *walJobRecord

	opts   experiments.Options
	ctx    context.Context
	cancel context.CancelFunc

	mu              sync.Mutex
	cond            *sync.Cond
	state           JobState
	cancelRequested bool
	created         time.Time
	started         time.Time
	finished        time.Time
	done, total     int
	events          []JobEvent
	results         []core.Result
	outcome         *SweepOutcome
	searchOut       *SearchOutcome
	err             error
	engine          Engine
}

// jobID mints the next job identifier under m.mu. Single-node IDs stay
// "<kind>-<seq>", bit-identical to the pre-fleet contract; in fleet
// mode the accepting node's name rides in the middle
// ("<kind>-<node>-<seq>") so every member can route a request for the
// job back to the node running it. Recovery's bumpSeq parses the suffix
// after the last '-', which both shapes satisfy.
func (m *Manager) jobID(kind string) string {
	if m.cfg.Cluster != nil {
		return fmt.Sprintf("%s-%s-%d", kind, m.cfg.Cluster.Self().Name, m.seq)
	}
	return fmt.Sprintf("%s-%d", kind, m.seq)
}

// errUnknownKind rejects a journaled job of a kind this binary does not
// know.
var errUnknownKind = errors.New("unknown job kind")

// buildJob turns a job's wire request into a pending job: the one path
// from request to job that Submit and Recover share. submit applies the
// admission limits and words failures for the client, as ErrBadRequest.
func (m *Manager) buildJob(rec *walJobRecord, submit bool) (*Job, error) {
	switch rec.Kind {
	case jobKindSweep:
		return m.buildSweep(rec.Sweep, submit)
	case jobKindSearch:
		return m.buildSearch(rec.Search, submit)
	}
	return nil, errUnknownKind
}

// specError words a request the job cannot be built from: the client
// sees ErrBadRequest with only the space stage named, recovery names
// every stage.
func specError(submit bool, stage string, err error) error {
	switch {
	case !submit:
		return fmt.Errorf("%s: %w", stage, err)
	case stage == "space":
		return fmt.Errorf("%w: space: %v", ErrBadRequest, err)
	}
	return fmt.Errorf("%w: %v", ErrBadRequest, err)
}

func newJob(kind jobKind, opts experiments.Options, total int) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		kind: kind, opts: opts,
		ctx: ctx, cancel: cancel,
		state: StatePending, created: time.Now(), total: total,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// logJob emits one structured lifecycle record for a job, always
// carrying job_id and the submitting request's request_id. Safe without
// the job lock: both fields are immutable after Submit.
func (m *Manager) logJob(j *Job, msg string, attrs ...slog.Attr) {
	if m.cfg.Log == nil {
		return
	}
	base := append([]slog.Attr{
		slog.String("job_id", j.ID),
		slog.String("request_id", j.requestID),
	}, attrs...)
	m.cfg.Log.LogAttrs(context.Background(), slog.LevelInfo, msg, base...)
}

// Submit validates a sweep request, admits it through the tenant's
// shaping pipeline (token bucket, concurrency and queue quotas) and
// enqueues the sweep for weighted-fair dispatch. It never blocks: a
// submission the tenant may not queue is rejected immediately with an
// honest Retry-After. ctx is the submitting request's context — its
// request ID and tenant are recorded on the job; the sweep itself
// outlives the request and is NOT cancelled when ctx ends.
func (m *Manager) Submit(ctx context.Context, req SweepRequest) (*Job, error) {
	return m.submit(ctx, &walJobRecord{Kind: jobKindSweep, Sweep: &req})
}

// SubmitSearch is Submit for a goal-directed search request.
func (m *Manager) SubmitSearch(ctx context.Context, req SearchRequest) (*Job, error) {
	return m.submit(ctx, &walJobRecord{Kind: jobKindSearch, Search: &req})
}

// submit admits one job of either kind; rec carries its wire request
// and becomes its journal record.
func (m *Manager) submit(ctx context.Context, rec *walJobRecord) (*Job, error) {
	job, err := m.buildJob(rec, true)
	if err != nil {
		return nil, err
	}
	tenant := TenantOf(ctx)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	ts := m.tenantLocked(tenant)
	if err := m.admitJobLocked(ts, time.Now()); err != nil {
		return nil, err
	}
	m.seq++
	job.ID = m.jobID(rec.Kind)
	job.requestID = obs.RequestID(ctx)
	job.tenant = tenant
	job.created = time.Now()
	job.kind.counts(m).submitted.Add(1)
	ts.submitted++
	m.journalJob(job, rec)
	m.logJob(job, rec.Kind+" accepted",
		append(job.kind.attrs(true), slog.String("tenant", tenant))...)
	m.enqueueLocked(ts, job)
	return job, nil
}

// runJob is the scheduler's dispatch target: it owns a job goroutine
// end to end — resolve the engine (which may train a detector on a
// cold option set), run the kind's body, finish.
func (m *Manager) runJob(job *Job) {
	defer m.wg.Done()
	defer m.release(job)
	// A panic anywhere in the job goroutine (engine resolution, the
	// serve/job failpoint, a bug in outcome distillation) must degrade
	// this one job to failed, never take the daemon down. finish is
	// idempotence-guarded by the terminal check: a panic after a clean
	// finish is swallowed rather than double-finishing.
	defer func() {
		if r := recover(); r != nil {
			if !job.State().Terminal() {
				m.finish(job, nil, fmt.Errorf("serve: job goroutine panicked: %v", r))
			}
		}
	}()

	if err := job.kind.prepare(m); err != nil {
		m.finish(job, nil, err)
		return
	}
	engine, err := m.engine(job.opts)
	if err != nil {
		m.finish(job, nil, fmt.Errorf("engine: %w", err))
		return
	}
	if err := fault.Fire(fault.PointJob); err != nil {
		m.finish(job, nil, fmt.Errorf("job: %w", err))
		return
	}
	job.mu.Lock()
	job.engine = engine
	job.mu.Unlock()
	if job.ctx.Err() != nil { // cancelled while the engines were building
		m.finish(job, nil, job.ctx.Err())
		return
	}
	job.setState(StateRunning)
	m.logJob(job, job.kind.name()+" started", job.kind.attrs(false)...)

	out, err := job.kind.run(m, job, engine)
	m.finish(job, out, err)
}

// eventData renders an event payload as one NDJSON line ({} if a value
// cannot be encoded).
func eventData(headers []string, row []interface{}) []byte {
	data, err := report.NDJSONRow(headers, row)
	if err != nil {
		return []byte(`{}`)
	}
	return data
}

// onPoint is the engine's per-run hook: it runs under the engine's
// completion lock (serial, strictly increasing Done), so it only
// serialises the event and wakes the streams.
func (j *Job) onPoint(ev dse.Event) {
	data := eventData(pointEventHeaders, pointEventRow(ev))
	j.mu.Lock()
	j.done, j.total = ev.Done, ev.Total
	j.appendEventLocked("point", data)
	j.mu.Unlock()
}

func (j *Job) appendEventLocked(name string, data []byte) {
	j.events = append(j.events, JobEvent{ID: len(j.events) + 1, Name: name, Data: data})
	j.cond.Broadcast()
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	if s == StateRunning {
		j.started = time.Now()
	}
	j.appendEventLocked("state", []byte(fmt.Sprintf(`{"state":%q}`, s)))
}

// finish classifies the run's end, lets the kind land its outcome
// (full, partial or none), appends the terminal "done" event, journals
// the terminal state and schedules eviction. A job whose run completed
// but degraded rows along the way (evaluator errors, recovered panics,
// exhausted retries) still lands in StateCompleted — graceful
// degradation, never an aborted job — but its outcome and "done" event
// carry partial: true plus the degraded count, so a client knows the
// result is not the full answer.
func (m *Manager) finish(job *Job, out any, err error) {
	state, errMsg, attrs, degraded, elapsed := m.finishLocked(job, out, err)
	attrs = append(append([]slog.Attr{slog.String("state", string(state))}, attrs...),
		slog.Duration("elapsed", elapsed))
	if degraded > 0 {
		attrs = append(attrs, slog.Int("degraded", degraded))
	}
	if errMsg != "" {
		attrs = append(attrs, slog.String("error", errMsg))
	}
	m.logJob(job, job.kind.name()+" finished", attrs...)

	m.journalFinish(job)
	m.scheduleEvict(job)
}

// scheduleEvict arms (and tracks) the job's TTL-eviction timer. A
// draining manager schedules none: Shutdown stops every tracked timer,
// and a timer armed after that would leak into the embedder.
func (m *Manager) scheduleEvict(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.timers[job.ID] = time.AfterFunc(m.cfg.JobTTL, func() { m.evict(job.ID) })
}

// finishLocked is finish's under-lock half; the deferred unlock keeps
// the job lock released even if outcome distillation panics (the job
// goroutine's recover then degrades the job instead of deadlocking).
func (m *Manager) finishLocked(job *Job, out any, err error) (state JobState, errMsg string, attrs []slog.Attr, degraded int, elapsed time.Duration) {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	counts := job.kind.counts(m)
	switch {
	case err == nil:
		job.state = StateCompleted
		counts.completed.Add(1)
	case job.cancelRequested && errors.Is(err, context.Canceled):
		job.state = StateCancelled
		counts.cancelled.Add(1)
	default:
		job.state = StateFailed
		job.err = err
		counts.failed.Add(1)
	}
	if job.err != nil {
		errMsg = job.err.Error()
	}
	done, attrs, degraded := job.kind.settle(m, job, out, errMsg)
	job.appendEventLocked("done", done)
	return job.state, errMsg, attrs, degraded, job.finished.Sub(job.created)
}

// evict forgets a finished job (jobs cannot leave a terminal state, so
// checking once is enough) and drops its TTL timer.
func (m *Manager) evict(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.timers[id]; ok {
		t.Stop()
		delete(m.timers, id)
	}
	if j, ok := m.jobs[id]; ok && j.State().Terminal() {
		delete(m.jobs, id)
	}
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	return nil, ErrNotFound
}

// Jobs snapshots every tracked job, newest first not guaranteed.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// Cancel requests cancellation: the engine stops dispatching, in-flight
// points finish, and the job lands in StateCancelled with its partial
// results. Cancelling a finished job is a no-op. ctx identifies the
// cancelling request in the lifecycle log (which may differ from the
// submitting request's ID on the job itself).
func (m *Manager) Cancel(ctx context.Context, id string) (*Job, error) {
	job, err := m.Job(id)
	if err != nil {
		return nil, err
	}
	job.requestCancel()
	m.logJob(job, job.kind.name()+" cancel requested",
		slog.String("cancelled_by_request_id", obs.RequestID(ctx)))
	return job, nil
}

// requestCancel flags a deliberate cancellation (so the job finishes in
// StateCancelled, not StateFailed) and fires the context.
func (j *Job) requestCancel() {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelRequested = true
	}
	j.mu.Unlock()
	j.cancel()
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Results returns the job's (possibly partial) result cloud.
func (j *Job) Results() []core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results
}

// Status renders the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	base := j.kind.route()
	st := JobStatus{
		ID:              j.ID,
		Kind:            j.kind.name(),
		Scenario:        j.opts.Scenario,
		State:           string(j.state),
		Tenant:          j.tenant,
		RequestID:       j.requestID,
		CancelRequested: j.cancelRequested && !j.state.Terminal(),
		CreatedAt:       j.created,
		Progress:        ProgressJSON{Done: j.done, Total: j.total},
		Error:           "",
		Result:          j.outcome,
		Search:          j.searchOut,
		StatusURL:       base + j.ID,
		EventsURL:       base + j.ID + "/events",
		ResultsURL:      base + j.ID + "/results",
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.engine != nil {
		st.Metrics = engineMetricsJSON(j.engine.Metrics())
	}
	return st
}

// Summary renders the job's listing row (GET /v1/sweeps).
func (j *Job) Summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobSummary{
		ID:        j.ID,
		Kind:      j.kind.name(),
		Scenario:  j.opts.Scenario,
		State:     string(j.state),
		Tenant:    j.tenant,
		RequestID: j.requestID,
		CreatedAt: j.created,
		Progress:  ProgressJSON{Done: j.done, Total: j.total},
		StatusURL: j.kind.route() + j.ID,
	}
}

// WaitEvents blocks until events after the given sequence number exist,
// then returns them. more is false when the stream is over: the job is
// terminal and fully replayed, or ctx ended.
func (j *Job) WaitEvents(ctx context.Context, after int) (evs []JobEvent, more bool) {
	stop := context.AfterFunc(ctx, func() {
		// Broadcast under the lock so the wakeup cannot slip between a
		// waiter's ctx check and its cond.Wait (the classic lost wakeup).
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, false
		}
		if after < len(j.events) {
			evs = make([]JobEvent, len(j.events)-after)
			copy(evs, j.events[after:])
			return evs, true
		}
		if j.state.Terminal() {
			return nil, false
		}
		j.cond.Wait()
	}
}

// estimateRemaining guesses the job's remaining wall-clock time from its
// own progress window.
func (j *Job) estimateRemaining() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.done == 0 || j.started.IsZero() {
		return 0, false
	}
	elapsed := time.Since(j.started)
	remaining := float64(elapsed) / float64(j.done) * float64(j.total-j.done)
	return time.Duration(remaining), true
}

// RetryAfter estimates how soon a rejected submission is worth retrying:
// the smallest remaining-time estimate over the running jobs, clamped to
// [1s, 5m]; 5s when nothing is measurable yet.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retryAfterLocked()
}

// retryAfterLocked is RetryAfter under an already-held manager lock (the
// admission pipeline computes honest Retry-After values there). Job
// locks nest inside the manager lock, so estimateRemaining is safe here.
func (m *Manager) retryAfterLocked() time.Duration {
	best := time.Duration(math.MaxInt64)
	for _, j := range m.jobs {
		if est, ok := j.estimateRemaining(); ok && est < best {
			best = est
		}
	}
	if best == time.Duration(math.MaxInt64) {
		return 5 * time.Second
	}
	return min(max(best, time.Second), 5*time.Minute)
}

// EvaluateBatch scores design points synchronously through the shared
// engine layer — the priority lane behind POST /v1/evaluate, for one
// point or many. It returns one row per point in input order plus a
// parallel cached-flags slice. Like the sweep path it degrades rather
// than fails: a point that errors (injected fault, evaluator panic)
// comes back as an error row. A run that ends early (deadline, client
// disconnect) still yields every row — the unfinished points as error
// rows carrying the run's error — and returns that error too, so the
// caller picks the shape: the HTTP layer answers a single point's
// deadline with 504 and degrades a batch into rows. Failures before the
// run (draining, rate limit, invalid options, engine resolution) return
// no rows.
func (m *Manager) EvaluateBatch(ctx context.Context, spec *OptionsSpec, pts []core.DesignPoint, timeout time.Duration) ([]core.Result, []bool, error) {
	rs, cached, _, err := m.evaluate(ctx, spec, pts, timeout, true)
	return rs, cached, err
}

// evaluate is the one synchronous evaluation step, shared by
// EvaluateBatch and PeerEvaluate: drain check, size limit, tenant
// admission (admit; peer fills were admitted on the requesting node),
// options and scenario, engine, the timeout clamped to EvalTimeout
// (timeout <= 0 picks the cap), and one run through runRows. It also
// returns the engine, whose fingerprint keys a peer response.
func (m *Manager) evaluate(ctx context.Context, spec *OptionsSpec, pts []core.DesignPoint, timeout time.Duration, admit bool) ([]core.Result, []bool, Engine, error) {
	if m.Draining() {
		return nil, nil, nil, ErrShuttingDown
	}
	if max := m.cfg.MaxSweepPoints; len(pts) > max {
		return nil, nil, nil, fmt.Errorf("%w: batch of %d points exceeds the limit %d", ErrBadRequest, len(pts), max)
	}
	if admit {
		if err := m.admitEval(ctx, len(pts)); err != nil {
			return nil, nil, nil, err
		}
		m.evaluations.Add(int64(len(pts)))
	}
	opts := spec.apply(m.cfg.Defaults)
	if _, err := resolveScenario(&opts); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	engine, err := m.engine(opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("engine: %w", err)
	}
	if timeout <= 0 || timeout > m.cfg.EvalTimeout {
		timeout = m.cfg.EvalTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	rs, cached, err := runRows(ctx, engine, pts)
	return rs, cached, engine, err
}

// runRows runs pts through e and returns one row per point, in input
// order, with each point's cached flag. The hook records by index which
// points completed and whether each was a cache hit; a run that ends
// early returns only the completed results, still in input order, so
// the flags place them. Every point that did not complete becomes an
// error row carrying the run's error, which is returned as well. The
// results themselves are not copied in the hook: on the warm single
// point path that copy would cost an allocation per request.
func runRows(ctx context.Context, e Engine, pts []core.DesignPoint) ([]core.Result, []bool, error) {
	n := len(pts)
	flags := make([]bool, 2*n) // cached flags, then completion flags
	cached, done := flags[:n:n], flags[n:]
	rs, err := e.RunWithHook(ctx, pts, func(ev dse.Event) {
		if ev.Index >= 0 && ev.Index < len(done) {
			cached[ev.Index], done[ev.Index] = ev.Cached, true
		}
	})
	if err == nil && len(rs) == n {
		return rs, cached, nil
	}
	if err == nil {
		err = errors.New("serve: engine returned a short result slice")
	}
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	// Results the flags cannot place are dropped, never misattributed.
	placed := completed == len(rs)
	rows := make([]core.Result, n)
	for i := range rows {
		if placed && done[i] {
			rows[i], rs = rs[0], rs[1:]
		} else {
			rows[i], cached[i] = core.Result{Point: pts[i], Err: err}, false
		}
	}
	return rows, cached, err
}

// engine resolves the engine serving opts and registers it for the
// /metrics aggregation. Callers word the error for their context.
func (m *Manager) engine(opts experiments.Options) (Engine, error) {
	e, err := m.cfg.Engines(opts)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.engines[e] = struct{}{}
	m.mu.Unlock()
	return e, nil
}

// Counters is the manager's point-in-time accounting for /metrics and
// /healthz.
type Counters struct {
	Submitted, Rejected  int64
	Completed, Cancelled int64
	Failed, Evaluations  int64
	Running, Tracked     int
	// Search-job accounting: lifecycle counters, the design points
	// dispatched by search drivers (any fidelity rung), and two gauges
	// tracking the most recent search round.
	SearchSubmitted, SearchCompleted int64
	SearchCancelled, SearchFailed    int64
	SearchEvaluations                int64
	SearchFrontSize                  int64
	SearchBudgetRemaining            int64
	EngineEvaluated                  int64
	EngineCacheHits                  int64
	EngineDeduped                    int64
	EnginePanics                     int64
	EngineRetries                    int64
	EngineMeanEval                   time.Duration
	// EngineBatches counts batched evaluator calls across every engine,
	// and EngineBatchPoints the cache-miss points they carried.
	EngineBatches     int64
	EngineBatchPoints int64
	// WAL accounting (zero when durability is off): startup replay
	// (terminal jobs restored as history, in-flight sweeps resumed, rows
	// restored instead of re-evaluated) plus the journal's own stats.
	WALReplayedJobs int64
	WALResumedJobs  int64
	WALReplayedRows int64
	WALAppends      int64
	WALFsyncs       int64
	WALDropped      int64
	WALSizeBytes    int64
	// EvalHist is the eval-duration histogram merged across every engine
	// the manager has resolved — the efficsense_eval_duration_seconds
	// exposition.
	EvalHist obs.Snapshot
	// BatchSizeHist (points per batched call) and BatchLatencyHist
	// (seconds per batched call) are the batch-dispatch histograms merged
	// across every engine — the efficsense_batch_size_points and
	// efficsense_batch_duration_seconds expositions.
	BatchSizeHist          obs.Snapshot
	BatchLatencyHist       obs.Snapshot
	CacheEntries           int
	CacheCapacity          int // 0 = unbounded
	CacheHits, CacheMisses int64
	CacheEvictions         int64
	CacheDeduped           int64
	CacheFlightPanics      int64
}

// Counters aggregates the manager's counters and every engine's metrics.
func (m *Manager) Counters() Counters {
	c := Counters{
		Submitted:             m.sweeps.submitted.Load(),
		Rejected:              m.rejected.Load(),
		Completed:             m.sweeps.completed.Load(),
		Cancelled:             m.sweeps.cancelled.Load(),
		Failed:                m.sweeps.failed.Load(),
		Evaluations:           m.evaluations.Load(),
		SearchSubmitted:       m.searches.submitted.Load(),
		SearchCompleted:       m.searches.completed.Load(),
		SearchCancelled:       m.searches.cancelled.Load(),
		SearchFailed:          m.searches.failed.Load(),
		SearchEvaluations:     m.searchEvaluations.Load(),
		SearchFrontSize:       m.searchFrontSize.Load(),
		SearchBudgetRemaining: m.searchBudget.Load(),
		WALReplayedJobs:       m.walReplayedJobs.Load(),
		WALResumedJobs:        m.walResumedJobs.Load(),
		WALReplayedRows:       m.walReplayedRows.Load(),
	}
	if m.cfg.WAL != nil {
		st := m.cfg.WAL.Stats()
		c.WALAppends, c.WALFsyncs = st.Appends, st.Fsyncs
		c.WALDropped, c.WALSizeBytes = st.Dropped, st.SizeBytes
	}
	m.mu.Lock()
	c.Tracked = len(m.jobs)
	engines := make([]Engine, 0, len(m.engines))
	for e := range m.engines {
		engines = append(engines, e)
	}
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		if s := j.State(); s == StateRunning || s == StatePending {
			c.Running++
		}
	}
	var meanSum time.Duration
	var meanN int64
	for _, e := range engines {
		s := e.Metrics()
		c.EngineEvaluated += s.Evaluated
		c.EngineCacheHits += s.CacheHits
		c.EngineDeduped += s.Deduped
		c.EnginePanics += s.Panics
		c.EngineRetries += s.Retries
		c.EngineBatches += s.Batches
		c.EngineBatchPoints += s.BatchPoints
		c.EvalHist.Merge(s.EvalHist)
		c.BatchSizeHist.Merge(s.BatchSizeHist)
		c.BatchLatencyHist.Merge(s.BatchLatencyHist)
		if s.Evaluated > 0 {
			meanSum += time.Duration(int64(s.MeanEval) * s.Evaluated)
			meanN += s.Evaluated
		}
	}
	if meanN > 0 {
		c.EngineMeanEval = meanSum / time.Duration(meanN)
	}
	switch cc := m.cfg.Cache.(type) {
	case *cache.LRU:
		st := cc.Stats()
		c.CacheEntries, c.CacheCapacity = st.Entries, st.Capacity
		c.CacheHits, c.CacheMisses = st.Hits, st.Misses
		c.CacheEvictions, c.CacheDeduped = st.Evictions, st.FlightShared
		c.CacheFlightPanics = st.FlightPanics
	case *dse.MemoryCache:
		c.CacheEntries = cc.Len()
		c.CacheHits, c.CacheMisses = cc.Stats()
	}
	return c
}

// Draining reports whether Shutdown has begun (new work is rejected).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown drains the manager: new submissions and evaluations are
// rejected immediately, queued jobs still dispatch and drain, and
// in-flight jobs get until ctx expires to finish before being
// cancelled. It returns nil on a clean drain and ctx.Err() when jobs
// had to be cancelled; either way every job goroutine has exited by
// return, so the HTTP server can be shut down next (SSE streams of
// finished jobs close themselves). After the drain every TTL-eviction
// timer is stopped — a drained manager leaks no timers — and the WAL,
// if configured, is compacted to a snapshot of the surviving jobs and
// closed.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		for _, j := range m.Jobs() {
			j.requestCancel()
		}
		<-drained
		err = ctx.Err()
	}
	m.mu.Lock()
	for id, t := range m.timers {
		t.Stop()
		delete(m.timers, id)
	}
	m.mu.Unlock()
	if m.cfg.WAL != nil {
		if cerr := m.compactWAL(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := m.cfg.WAL.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
