package serve

// Multi-tenant traffic shaping. Every request carries a tenant identity
// (the X-API-Key header; absent or unusable keys fall into the default
// tenant), and the Manager shapes three things per tenant:
//
//   - admission: a token bucket per tenant for job submissions and a
//     second, independent bucket for synchronous evaluations, each with
//     an honest Retry-After when it rejects;
//   - quotas: per-tenant bounds on concurrently running jobs and queued
//     work, so one noisy tenant can never occupy every slot or build
//     unbounded queue state;
//   - fairness: queued jobs drain through a weighted-fair (stride)
//     scheduler, so a tenant with weight 2 gets twice the dispatch
//     share of a weight-1 tenant while both have work queued, and an
//     idle tenant's unused share never accrues into a later burst.
//
// Synchronous /v1/evaluate calls are the priority lane: they never take
// a job slot and never queue behind bulk sweeps — only their tenant's
// own evaluate bucket bounds them — so interactive latency stays flat
// while bulk tenants saturate the job queues.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// TenantHeader is the HTTP header carrying the tenant identity.
const TenantHeader = "X-API-Key"

// DefaultTenant is the identity of requests without a usable API key.
const DefaultTenant = "default"

// ErrRateLimited rejects a request that exceeded its tenant's token
// bucket (429 + honest Retry-After).
var ErrRateLimited = errors.New("serve: tenant rate limit exceeded")

// RetryAfterError decorates a rejection with the honest wait after
// which the same request would be admitted. The HTTP layer surfaces it
// as the Retry-After header.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After.Round(time.Millisecond))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryAfter extracts an honest Retry-After from err, or fallback.
func retryAfter(err error, fallback time.Duration) time.Duration {
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		return ra.After
	}
	return fallback
}

// TenantLimits shapes one tenant. The zero value of every field picks
// the permissive default: weight 1, concurrency bounded only by the
// global slots, no queueing (submissions beyond capacity are rejected,
// the pre-tenancy contract), and unlimited submission/evaluation rates.
type TenantLimits struct {
	// Weight is the tenant's fair-share weight: while several tenants
	// have queued jobs, dispatch slots divide proportionally to weight.
	Weight int
	// MaxConcurrentJobs bounds this tenant's simultaneously running jobs
	// (<=0: the manager's global MaxConcurrentJobs).
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds this tenant's queued (admitted, not yet
	// dispatched) jobs. 0 disables queueing: a submission that cannot
	// start immediately is rejected with a Retry-After instead.
	MaxQueuedJobs int
	// SubmitRate is the sustained job-submission rate (jobs/second)
	// with SubmitBurst of burst capacity; 0 = unlimited.
	SubmitRate  float64
	SubmitBurst int
	// EvalRate bounds synchronous evaluation requests the same way
	// (requests/second, EvalBurst burst); 0 = unlimited.
	EvalRate  float64
	EvalBurst int
}

// withDefaults resolves the zero fields; globalSlots is the manager's
// MaxConcurrentJobs.
func (l TenantLimits) withDefaults(globalSlots int) TenantLimits {
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.MaxConcurrentJobs <= 0 || l.MaxConcurrentJobs > globalSlots {
		l.MaxConcurrentJobs = globalSlots
	}
	if l.MaxQueuedJobs < 0 {
		l.MaxQueuedJobs = 0
	}
	if l.SubmitBurst <= 0 {
		l.SubmitBurst = 1
	}
	if l.EvalBurst <= 0 {
		l.EvalBurst = 1
	}
	return l
}

// TenantPolicy maps tenant identities to limits. The zero value admits
// everything the pre-tenancy manager admitted: one shared default
// tenant, no rate limits, no queueing.
type TenantPolicy struct {
	// Default applies to tenants without an explicit entry.
	Default TenantLimits
	// Tenants overrides limits per tenant identity.
	Tenants map[string]TenantLimits
}

func (p TenantPolicy) limits(name string, globalSlots int) TenantLimits {
	if l, ok := p.Tenants[name]; ok {
		return l.withDefaults(globalSlots)
	}
	return p.Default.withDefaults(globalSlots)
}

// tenantKey carries the tenant identity through request contexts.
type tenantKey struct{}

// WithTenant attaches a tenant identity to ctx (the HTTP middleware
// calls it; tests may too).
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantOf extracts the request's tenant, or DefaultTenant.
func TenantOf(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok && t != "" {
		return t
	}
	return DefaultTenant
}

// tenantName sanitises an API key header into a tenant identity: keys
// are used as accounting labels (metrics, logs), so they must be short
// printable ASCII without quoting hazards. Anything else — including an
// absent key — lands in the default tenant.
func tenantName(apiKey string) string {
	if apiKey == "" || len(apiKey) > 64 {
		return DefaultTenant
	}
	for i := 0; i < len(apiKey); i++ {
		c := apiKey[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return DefaultTenant
		}
	}
	return apiKey
}

// bucket is a token bucket over wall-clock time: take admits when a
// token is available and otherwise reports how long until one is.
// rate 0 admits everything. Not goroutine-safe; callers hold m.mu.
type bucket struct {
	rate   float64 // tokens per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) bucket {
	return bucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take refills from elapsed time, then spends one token or reports the
// wait until the next token accrues.
func (b *bucket) take(now time.Time) time.Duration {
	if b.rate <= 0 {
		return 0
	}
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	need := 1 - b.tokens
	return time.Duration(need / b.rate * float64(time.Second))
}

// restore reinstates a journaled level: tokens clamp into [0, burst]
// (the policy may have changed between runs) and last feeds the next
// refill, so elapsed downtime still accrues tokens exactly as uptime
// would. A bucket without a rate has nothing to restore.
func (b *bucket) restore(tokens float64, last time.Time) {
	if b.rate <= 0 {
		return
	}
	b.tokens = math.Min(b.burst, math.Max(0, tokens))
	b.last = last
}

// tenantState is the manager's per-tenant accounting and scheduling
// state. All fields are guarded by the manager's mutex.
type tenantState struct {
	name   string
	limits TenantLimits

	submit bucket
	eval   bucket

	// pass is the stride scheduler's virtual time: dispatching a job
	// advances it by 1/Weight, so the min-pass tenant is always the one
	// furthest below its fair share.
	pass    float64
	queue   []*Job
	running int

	// Counters for /metrics (efficsense_tenant_*).
	submitted     int64
	rejectedRate  int64
	rejectedQuota int64
	evaluations   int64
	evalLimited   int64
}

// tenantLocked returns (creating on first use) the tenant's state.
// Callers hold m.mu.
func (m *Manager) tenantLocked(name string) *tenantState {
	if ts, ok := m.tenants[name]; ok {
		return ts
	}
	limits := m.cfg.Tenancy.limits(name, m.cfg.MaxConcurrentJobs)
	ts := &tenantState{
		name:   name,
		limits: limits,
		submit: newBucket(limits.SubmitRate, limits.SubmitBurst),
		eval:   newBucket(limits.EvalRate, limits.EvalBurst),
		// A new tenant starts at the scheduler's current virtual time, so
		// it cannot claim "credit" for the time before it arrived.
		pass: m.vtime,
	}
	m.tenants[name] = ts
	return ts
}

// admitJobLocked runs the tenancy admission pipeline for one submission:
// token bucket, then the concurrency+queue quota. It reports nil when
// the job may be enqueued. Callers hold m.mu.
func (m *Manager) admitJobLocked(ts *tenantState, now time.Time) error {
	if wait := ts.submit.take(now); wait > 0 {
		ts.rejectedRate++
		m.rejected.Add(1)
		return &RetryAfterError{
			Err:   fmt.Errorf("%w: tenant %q over its submission rate", ErrRateLimited, ts.name),
			After: wait,
		}
	}
	// The token is spent even if the quota check below rejects, so the
	// bucket level journals here — quota persistence must survive a
	// SIGKILL, or a crash-looping client resets its own rate limit.
	m.journalTenant(ts)
	if ts.running >= ts.limits.MaxConcurrentJobs || m.runningJobs >= m.cfg.MaxConcurrentJobs {
		// The job cannot start now; it must queue — if the tenant still
		// has queue room.
		if len(ts.queue) >= ts.limits.MaxQueuedJobs {
			ts.rejectedQuota++
			m.rejected.Add(1)
			return &RetryAfterError{
				Err: fmt.Errorf("%w (tenant %q: %d running, %d queued)",
					ErrSaturated, ts.name, ts.running, len(ts.queue)),
				After: m.retryAfterLocked(),
			}
		}
	}
	return nil
}

// enqueueLocked tracks an admitted (or recovered in-flight) job, counts
// it in the drain wait group, queues it on its tenant and dispatches as
// much queued work as the slots allow. Callers hold m.mu.
func (m *Manager) enqueueLocked(ts *tenantState, job *Job) {
	m.jobs[job.ID] = job
	m.wg.Add(1)
	ts.queue = append(ts.queue, job)
	m.dispatchLocked()
}

// dispatchLocked drains queued jobs into free slots in weighted-fair
// order: among tenants with queued work and concurrency headroom, the
// one with the smallest virtual time (ties broken by name, for
// determinism) dispatches next and its virtual time advances by
// 1/weight. Runs whenever a slot frees or a job is enqueued; spawns job
// goroutines but never blocks. Callers hold m.mu.
func (m *Manager) dispatchLocked() {
	for m.runningJobs < m.cfg.MaxConcurrentJobs {
		var pick *tenantState
		for _, ts := range m.tenants {
			if len(ts.queue) == 0 || ts.running >= ts.limits.MaxConcurrentJobs {
				continue
			}
			if pick == nil || ts.pass < pick.pass ||
				(ts.pass == pick.pass && ts.name < pick.name) {
				pick = ts
			}
		}
		if pick == nil {
			return
		}
		job := pick.queue[0]
		pick.queue = pick.queue[1:]
		pick.running++
		m.runningJobs++
		m.vtime = pick.pass
		pick.pass += 1 / float64(pick.limits.Weight)
		go m.runJob(job)
	}
}

// releaseLocked returns a finished job's slot and dispatches the next
// queued work. Callers hold m.mu.
func (m *Manager) releaseLocked(job *Job) {
	if ts, ok := m.tenants[job.tenant]; ok && ts.running > 0 {
		ts.running--
	}
	if m.runningJobs > 0 {
		m.runningJobs--
	}
	m.dispatchLocked()
}

// release is releaseLocked behind the manager lock (the job goroutine's
// deferred slot return).
func (m *Manager) release(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(job)
}

// admitEval is the priority lane's admission: synchronous evaluations
// spend from the tenant's evaluate bucket only — no slot, no queue —
// so they are shaped per tenant but never starved behind bulk jobs.
// points counts the design points the request carries (for accounting).
func (m *Manager) admitEval(ctx context.Context, points int) error {
	tenant := TenantOf(ctx)
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tenantLocked(tenant)
	if wait := ts.eval.take(time.Now()); wait > 0 {
		ts.evalLimited++
		return &RetryAfterError{
			Err:   fmt.Errorf("%w: tenant %q over its evaluation rate", ErrRateLimited, tenant),
			After: wait,
		}
	}
	m.journalTenant(ts)
	ts.evaluations += int64(points)
	return nil
}

// TenantCounters is one tenant's point-in-time accounting for /metrics.
type TenantCounters struct {
	Tenant        string
	Weight        int
	Running       int
	Queued        int
	Submitted     int64
	RejectedRate  int64
	RejectedQuota int64
	Evaluations   int64
	EvalLimited   int64
}

// TenantCounters snapshots every tenant's accounting, sorted by tenant
// name so the /metrics exposition is deterministic.
func (m *Manager) TenantCounters() []TenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TenantCounters, 0, len(m.tenants))
	for _, ts := range m.tenants {
		out = append(out, TenantCounters{
			Tenant:        ts.name,
			Weight:        ts.limits.Weight,
			Running:       ts.running,
			Queued:        len(ts.queue),
			Submitted:     ts.submitted,
			RejectedRate:  ts.rejectedRate,
			RejectedQuota: ts.rejectedQuota,
			Evaluations:   ts.evaluations,
			EvalLimited:   ts.evalLimited,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
