package main

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/serve"
)

// The traced run records spans from the benchmark's own code only: an
// HTTP middleware at the request boundary, a wrapping serve.EngineFunc
// around Engine.RunWithHook, and wrappers around the dse.Cache and the
// evaluator (dse.BatchEvaluator) the sweep engine calls. Each wrapper
// implements exactly the optional interfaces of the value it wraps, so
// the engine takes the same code path as in the untraced run.
//
// Spans are kept in memory as intervals on one monotonic clock. A
// layer's self time is its span minus the union of its children's
// intervals. Children are tied to their engine run through the run
// context (EvaluateBatch) or, for calls that carry no context (cache
// operations, single-point Evaluate), through the design point, which
// the run registers while it is active.

type ctxKey int

const (
	requestSpanKey ctxKey = iota
	runSpanKey
)

type childKind int

const (
	childEval childKind = iota
	childCache
	childHook
	childEngine
)

type interval struct {
	kind       childKind
	start, end int64
}

type span struct {
	start int64
	mu    sync.Mutex
	kids  []interval
}

func (s *span) add(kind childKind, start, end int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kids = append(s.kids, interval{kind, start, end})
	s.mu.Unlock()
}

// coverage returns, for [start, end], the length of the union of the
// children of each kind set: evaluator calls; evaluator and cache
// calls; evaluator, cache and hook calls.
func (s *span) coverage(start, end int64) (eval, evalCache, all int64) {
	s.mu.Lock()
	ivs := make([]interval, 0, len(s.kids))
	for _, k := range s.kids {
		if k.start, k.end = max(k.start, start), min(k.end, end); k.end > k.start {
			ivs = append(ivs, k)
		}
	}
	s.mu.Unlock()
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	return union(ivs, childEval), union(ivs, childEval, childCache), union(ivs, childEval, childCache, childHook)
}

// engineTime is the time a request span's engine runs took within
// [start, end]. A request's engine runs are sequential, so their
// durations add up without overlap.
func (s *span) engineTime(start, end int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, k := range s.kids {
		if k.kind == childEngine {
			total += max(min(k.end, end)-max(k.start, start), 0)
		}
	}
	return total
}

// union is the length of the union of the start-sorted intervals whose
// kind is one of kinds.
func union(ivs []interval, kinds ...childKind) int64 {
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		if !slices.Contains(kinds, iv.kind) {
			continue
		}
		if iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// runRecord is one finished engine run that served a sweep job.
type runRecord struct {
	start, dur                       int64
	evalCov, cacheCov, hookCov, self int64
	points                           int
}

// tracer aggregates the spans of the timed phase.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	active  map[string]*span // point key → the engine run evaluating it
	submits []int64          // POST /v1/sweeps handler entries
	sweeps  []runRecord
	perArch map[core.Architecture]*archTime // evaluator time per architecture

	evalReqs, evalReqDur, evalReqEngine        atomic.Int64
	runPoints, runSelf                         atomic.Int64
	cacheGets, cacheGetHits                    atomic.Int64
	cacheDos, cacheDoHits, cacheHitDur         atomic.Int64
	batches, batchPoints, batchGroups, singles atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		active:  make(map[string]*span),
		perArch: make(map[core.Architecture]*archTime),
	}
}

// archTime is the evaluator time spent on one architecture's points.
type archTime struct {
	dur    int64
	points int
}

func (t *tracer) addArch(a core.Architecture, dur int64, points int) {
	t.mu.Lock()
	at := t.perArch[a]
	if at == nil {
		at = &archTime{}
		t.perArch[a] = at
	}
	at.dur += dur
	at.points += points
	t.mu.Unlock()
}

func (t *tracer) archTime(a core.Architecture) archTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	if at := t.perArch[a]; at != nil {
		return *at
	}
	return archTime{}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// reset drops everything recorded so far: the timed phase starts clean.
func (t *tracer) reset() {
	t.mu.Lock()
	t.submits, t.sweeps = nil, nil
	t.perArch = make(map[core.Architecture]*archTime)
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{
		&t.evalReqs, &t.evalReqDur, &t.evalReqEngine,
		&t.runPoints, &t.runSelf,
		&t.cacheGets, &t.cacheGetHits,
		&t.cacheDos, &t.cacheDoHits, &t.cacheHitDur,
		&t.batches, &t.batchPoints, &t.batchGroups, &t.singles,
	} {
		c.Store(0)
	}
}

// runOf finds the engine run a context-free call belongs to.
func (t *tracer) runOf(pointKey string) *span {
	t.mu.Lock()
	sp := t.active[pointKey]
	t.mu.Unlock()
	return sp
}

// middleware records the request boundary: every /v1/evaluate request
// is a span whose engine runs are its children; sweep submissions are
// timestamped so the admission wait before their engine run shows.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/evaluate":
			sp := &span{start: start}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestSpanKey, sp)))
			end := t.now()
			t.evalReqs.Add(1)
			t.evalReqDur.Add(end - start)
			t.evalReqEngine.Add(sp.engineTime(start, end))
		case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
			t.mu.Lock()
			t.submits = append(t.submits, start)
			t.mu.Unlock()
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

type tracedEngine struct {
	inner serve.Engine
	t     *tracer
}

func (e *tracedEngine) Metrics() dse.Snapshot { return e.inner.Metrics() }

func (e *tracedEngine) RunWithHook(ctx context.Context, points []core.DesignPoint, hook func(dse.Event)) ([]core.Result, error) {
	t := e.t
	sp := &span{start: t.now()}
	keys := make([]string, len(points))
	t.mu.Lock()
	for i, p := range points {
		keys[i] = p.Key()
		t.active[keys[i]] = sp
	}
	t.mu.Unlock()
	h := hook
	if hook != nil {
		h = func(ev dse.Event) {
			s := t.now()
			hook(ev)
			sp.add(childHook, s, t.now())
		}
	}
	rs, err := e.inner.RunWithHook(context.WithValue(ctx, runSpanKey, sp), points, h)
	end := t.now()
	t.mu.Lock()
	for _, k := range keys {
		if t.active[k] == sp {
			delete(t.active, k)
		}
	}
	t.mu.Unlock()

	dur := end - sp.start
	evalCov, ecCov, allCov := sp.coverage(sp.start, end)
	rec := runRecord{
		start: sp.start, dur: dur, points: len(points),
		evalCov: evalCov, cacheCov: ecCov - evalCov, hookCov: allCov - ecCov, self: dur - allCov,
	}
	t.runPoints.Add(int64(len(points)))
	t.runSelf.Add(rec.self)
	if req, ok := ctx.Value(requestSpanKey).(*span); ok {
		req.add(childEngine, sp.start, end)
	} else {
		t.mu.Lock()
		t.sweeps = append(t.sweeps, rec)
		t.mu.Unlock()
	}
	return rs, err
}

// pointKeyOf strips the evaluator identity from a cache key
// ("evalID/pointKey").
func pointKeyOf(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// tracedCache wraps the shared *cache.LRU, which implements dse.Cache
// and dse.Flight (and none of the other optional cache interfaces).
type tracedCache struct {
	inner *cache.LRU
	t     *tracer
}

var (
	_ dse.Cache  = (*tracedCache)(nil)
	_ dse.Flight = (*tracedCache)(nil)
)

func (c *tracedCache) Get(key string) (core.Result, bool) {
	t := c.t
	s := t.now()
	r, ok := c.inner.Get(key)
	e := t.now()
	t.runOf(pointKeyOf(key)).add(childCache, s, e)
	t.cacheGets.Add(1)
	if ok {
		t.cacheGetHits.Add(1)
		t.cacheHitDur.Add(e - s)
	}
	return r, ok
}

func (c *tracedCache) Put(key string, r core.Result) {
	t := c.t
	s := t.now()
	c.inner.Put(key, r)
	t.runOf(pointKeyOf(key)).add(childCache, s, t.now())
}

func (c *tracedCache) Do(key string, fn func() core.Result) (core.Result, bool, bool) {
	t := c.t
	s := t.now()
	r, hit, shared := c.inner.Do(key, fn)
	e := t.now()
	t.runOf(pointKeyOf(key)).add(childCache, s, e)
	t.cacheDos.Add(1)
	if hit {
		t.cacheDoHits.Add(1)
		t.cacheHitDur.Add(e - s)
	}
	return r, hit, shared
}

// tracedEvaluator wraps *core.Evaluator, which implements
// dse.PointEvaluator, dse.Fingerprinter and dse.BatchEvaluator.
type tracedEvaluator struct {
	inner *core.Evaluator
	t     *tracer
}

var (
	_ dse.PointEvaluator = (*tracedEvaluator)(nil)
	_ dse.Fingerprinter  = (*tracedEvaluator)(nil)
	_ dse.BatchEvaluator = (*tracedEvaluator)(nil)
)

func (v *tracedEvaluator) Fingerprint() string { return v.inner.Fingerprint() }

func (v *tracedEvaluator) Evaluate(p core.DesignPoint) core.Result {
	t := v.t
	s := t.now()
	r := v.inner.Evaluate(p)
	e := t.now()
	t.runOf(p.Key()).add(childEval, s, e)
	t.addArch(p.Arch, e-s, 1)
	t.singles.Add(1)
	return r
}

// EvaluateBatch hands the inner evaluator one call per architecture in
// the batch, so each call's time is that architecture's cost. A GroupKey
// group never spans two architectures, and the inner evaluator scores
// group by group, so every group is evaluated as in one call.
func (v *tracedEvaluator) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	t := v.t
	sp, _ := ctx.Value(runSpanKey).(*span)
	var archs []core.Architecture
	byArch := make(map[core.Architecture][]int)
	groups := make(map[core.DesignPoint]struct{}, len(pts))
	for i, p := range pts {
		if _, ok := byArch[p.Arch]; !ok {
			archs = append(archs, p.Arch)
		}
		byArch[p.Arch] = append(byArch[p.Arch], i)
		groups[p.GroupKey()] = struct{}{}
	}
	out := make([]core.Result, len(pts))
	for _, a := range archs {
		idx := byArch[a]
		sub := make([]core.DesignPoint, len(idx))
		for j, i := range idx {
			sub[j] = pts[i]
		}
		s := t.now()
		rs := v.inner.EvaluateBatch(ctx, sub)
		e := t.now()
		sp.add(childEval, s, e)
		t.addArch(a, e-s, len(sub))
		for j, i := range idx {
			out[i] = rs[j]
		}
	}
	t.batches.Add(1)
	t.batchPoints.Add(int64(len(pts)))
	t.batchGroups.Add(int64(len(groups)))
	return out
}

// tracedSuiteEngines is the traced run's EngineFunc. It resolves option
// sets the way serve.SuiteEngines does — one experiments.Suite per
// distinct option set, every engine sharing one bounded cache — but
// assembles each sweep engine itself, so the evaluator and the cache
// it is handed are the traced wrappers, and returns it wrapped so its
// RunWithHook is a span. One option set always yields the same wrapper,
// as the Manager's engine registry expects.
func (t *tracer) tracedSuiteEngines(lru *cache.LRU) serve.EngineFunc {
	tc := &tracedCache{inner: lru, t: t}
	var mu sync.Mutex
	engines := make(map[string]serve.Engine)
	return func(opts experiments.Options) (eng serve.Engine, err error) {
		opts.Progress, opts.Trace, opts.Cache = nil, nil, nil
		suite := experiments.NewSuite(opts)
		o := suite.Options()
		key := fmt.Sprintf("scn:%s|s%d|r%d|t%d|n%d|w%d|b%d|e%d|a%g|win%g",
			o.Scenario, o.Seed, o.Records, o.TrainRecords, o.NoiseSteps, o.Workers,
			o.BatchSize, o.Epochs, o.MinAccuracy, o.WindowSeconds)
		mu.Lock()
		defer mu.Unlock()
		if e, ok := engines[key]; ok {
			return e, nil
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("building evaluation suite: %v", r)
			}
		}()
		sweep, err := dse.NewSweep(&tracedEvaluator{inner: suite.Evaluator(), t: t},
			dse.WithWorkers(max(o.Workers, 0)),
			dse.WithBatchSize(max(o.BatchSize, 0)),
			dse.WithCache(tc))
		if err != nil {
			return nil, err
		}
		eng = &tracedEngine{inner: sweep, t: t}
		engines[key] = eng
		return eng, nil
	}
}
