package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/serve"
	"efficsense/internal/wal"
)

// phaseCount is the operation accounting of one phase: every attempted
// operation either succeeded or failed with exactly one cause.
type phaseCount struct {
	attempted, succeeded int
	failed               map[string]int
	firstErr             string
}

func (p *phaseCount) record(oe *opError) {
	p.attempted++
	if oe == nil {
		p.succeeded++
		return
	}
	if p.failed == nil {
		p.failed = make(map[string]int)
	}
	p.failed[oe.cause]++
	if p.firstErr == "" {
		p.firstErr = oe.Error()
	}
}

func (p *phaseCount) add(o phaseCount) {
	p.attempted += o.attempted
	p.succeeded += o.succeeded
	for k, v := range o.failed {
		if p.failed == nil {
			p.failed = make(map[string]int)
		}
		p.failed[k] += v
	}
	if p.firstErr == "" {
		p.firstErr = o.firstErr
	}
}

func (p phaseCount) nFailed() int { return p.attempted - p.succeeded }

// pass is one complete run of a workload against one daemon: setup
// measurements, an untimed warm-up, the timed phase.
type pass struct {
	traced bool
	setups []time.Duration
	phases map[string]*phaseCount // "setup", "warmup", "timed"
	obs    *observed
	// digestKeys are the point keys of the seed-independent warm-up set.
	digestKeys []string
	// elapsed is the timed phase's wall time.
	elapsed time.Duration
	// sweep-cold
	sweeps []sweepObs
	// evaluate-*
	evals     []evalSample
	maxRSSMB  float64
	walBefore wal.Stats
	walAfter  wal.Stats
	lruBefore cache.Stats
	lruAfter  cache.Stats
}

func newPass(traced bool) *pass {
	return &pass{
		traced: traced,
		obs:    newObserved(),
		phases: map[string]*phaseCount{"setup": {}, "warmup": {}, "timed": {}},
	}
}

// runPass measures setup nSetups times (keeping the last daemon), warms
// it and drives the timed phase for the given duration.
func runPass(w workload, sc scale, cfg config, nSetups int, tr *tracer) (*pass, error) {
	p := newPass(tr != nil)
	var st *stack
	for i := 0; i < nSetups; i++ {
		s, d, r, err := measureSetup(w, sc, cfg.workdir, tr)
		if oe, ok := err.(*opError); ok {
			p.phases["setup"].record(oe)
			return p, fmt.Errorf("setup %d: %w", i+1, err)
		}
		if err != nil {
			return p, fmt.Errorf("setup %d: %w", i+1, err)
		}
		p.phases["setup"].record(nil)
		p.obs.addEval(w.setupProbe(), r)
		p.setups = append(p.setups, d)
		if i < nSetups-1 {
			if err := s.stop(); err != nil {
				return p, fmt.Errorf("stopping setup daemon %d: %w", i+1, err)
			}
			continue
		}
		st = s
	}
	defer st.stop()

	rng := rand.New(rand.NewSource(cfg.seed))
	if w.sweep {
		if err := warmSweep(w, sc, st, p); err != nil {
			return p, err
		}
	} else if err := warmHotSet(w, sc, st, p); err != nil {
		return p, err
	}

	if tr != nil {
		tr.reset()
	}
	p.walBefore, p.lruBefore = st.wal.Stats(), st.lru.Stats()
	start := time.Now()
	if w.sweep {
		driveSweeps(w, sc, st, p, rng, cfg.seconds)
	} else {
		driveEvaluations(w, sc, st, p, cfg.seed, cfg.seconds)
	}
	p.elapsed = time.Since(start)
	p.walAfter, p.lruAfter = st.wal.Stats(), st.lru.Stats()
	p.maxRSSMB = maxRSSMB()
	return p, nil
}

// warmSweep runs the untimed warm-up sweep at the fixed noise floor:
// it builds the process-wide CS reconstruction plans and gives the
// sim_digest its seed-independent rows.
func warmSweep(w workload, sc scale, st *stack, p *pass) error {
	c := newClient(st.base, 2)
	defer c.close()
	obs, oe := c.sweep(sweepBody(w, sc, warmSweepNoise))
	p.phases["warmup"].record(oe)
	if oe != nil {
		return fmt.Errorf("warm-up sweep: %w", oe)
	}
	want := w.sweepPoints(warmSweepNoise)
	p.obs.addSweep(want, warmSweepNoise, obs.rows, obs.sseRows)
	for k := range want {
		p.digestKeys = append(p.digestKeys, k)
	}
	return nil
}

// warmHotSet evaluates the 64 hot points once, before timing, on the
// workload's client count.
func warmHotSet(w workload, sc scale, st *stack, p *pass) error {
	hot := w.hotSet()
	c := newClient(st.base, w.clients)
	defer c.close()
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < w.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				r, _, _, oe := c.evaluate(evalBody(w, sc, hot[idx]))
				mu.Lock()
				p.phases["warmup"].record(oe)
				if oe != nil && firstErr == nil {
					firstErr = fmt.Errorf("warming %+v: %w", hot[idx], oe)
				}
				if oe == nil {
					p.obs.addEval(hot[idx], r)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range hot {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, h := range hot {
		dp, err := designPoint(h)
		if err != nil {
			return err
		}
		p.digestKeys = append(p.digestKeys, dp.Key())
	}
	return firstErr
}

// driveSweeps is sweep-cold's closed loop: one client submits sweeps
// back to back, each at a fresh noise floor drawn from the seed, and
// starts no new sweep once the duration has passed.
func driveSweeps(w workload, sc scale, st *stack, p *pass, rng *rand.Rand, d time.Duration) {
	c := newClient(st.base, 2)
	defer c.close()
	start := time.Now()
	for time.Since(start) < d {
		noise := w.drawNoise(rng)
		obs, oe := c.sweep(sweepBody(w, sc, noise))
		p.phases["timed"].record(oe)
		if oe != nil {
			continue
		}
		p.sweeps = append(p.sweeps, obs)
		p.obs.addSweep(w.sweepPoints(noise), noise, obs.rows, obs.sseRows)
	}
}

// evalSample is one completed /v1/evaluate request.
type evalSample struct {
	done      time.Duration // completion, from the start of the timed phase
	lat, ttfb time.Duration
}

// driveEvaluations is the evaluate workloads' closed loop: each client
// sends its next single-point request when the previous one returned,
// drawing uniformly from the hot set with its own seeded generator. In
// evaluate-mixed every freshEvery-th request of a client, at a seeded
// offset, is a fresh point instead.
func driveEvaluations(w workload, sc scale, st *stack, p *pass, seed int64, d time.Duration) {
	hot := w.hotSet()
	bodies := make([][]byte, len(hot))
	for i, h := range hot {
		bodies[i] = evalBody(w, sc, h)
	}
	c := newClient(st.base, w.clients)
	defer c.close()
	type clientOut struct {
		count   phaseCount
		samples []evalSample
		obs     *observed
	}
	outs := make([]clientOut, w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(out *clientOut, rng *rand.Rand) {
			defer wg.Done()
			out.obs = newObserved()
			out.samples = make([]evalSample, 0, 1<<16)
			offset := rng.Intn(freshEvery)
			fresh := 0
			for n := 0; time.Since(start) < d; n++ {
				var spec serve.PointSpec
				var body []byte
				if w.fresh && n%freshEvery == offset {
					spec = w.freshPoint(rng, fresh)
					body = evalBody(w, sc, spec)
					fresh++
				} else {
					i := rng.Intn(len(bodies))
					spec, body = hot[i], bodies[i]
				}
				r, ttfb, total, oe := c.evaluate(body)
				out.count.record(oe)
				if oe != nil {
					continue
				}
				out.samples = append(out.samples, evalSample{done: time.Since(start), lat: total, ttfb: ttfb})
				out.obs.addEval(spec, r)
			}
		}(&outs[i], rand.New(rand.NewSource(seed*7919+int64(i))))
	}
	wg.Wait()
	for _, o := range outs {
		p.phases["timed"].add(o.count)
		p.evals = append(p.evals, o.samples...)
		p.obs.merge(o.obs)
	}
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// quantile is the nearest-rank quantile of the durations, in seconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.999999) - 1
	idx = min(max(idx, 0), len(s)-1)
	return s[idx].Seconds()
}

// median of the durations in seconds.
func median(ds []time.Duration) float64 {
	secs := make([]float64, len(ds))
	for i, d := range ds {
		secs[i] = d.Seconds()
	}
	return medianOf(secs)
}

// endToEnd computes the gated end-to-end metrics of a pass, plus the
// workload-specific figures they are made of (printed, not gated).
func (p *pass) endToEnd(w workload) (gated, detail []metric) {
	timed := p.phases["timed"]
	failRatio := 0.0
	if timed.attempted > 0 {
		failRatio = float64(timed.nFailed()) / float64(timed.attempted)
	}
	gated = append(gated,
		metric{name: "setup_s", value: median(p.setups), unit: "s", n: len(p.setups)},
		metric{name: "max_rss_mb", value: p.maxRSSMB, unit: "MB", n: 1},
	)
	detail = append(detail, metric{name: "fail_ratio", value: failRatio, unit: "ratio", n: timed.attempted})
	if w.sweep {
		var rows int
		var lat, first, rowLat []time.Duration
		for _, s := range p.sweeps {
			rows += len(s.rows)
			lat = append(lat, s.latency)
			first = append(first, s.firstRow)
			rowLat = append(rowLat, s.rowLat...)
		}
		// Per-sweep throughput, median over the run's sweeps: one
		// disturbed sweep moves it no more than any other.
		var perSweep []float64
		for _, s := range p.sweeps {
			if s.latency > 0 {
				perSweep = append(perSweep, float64(len(s.rows))/s.latency.Seconds())
			}
		}
		pps := medianOf(perSweep)
		gated = append(gated,
			metric{name: "ops_per_s", value: pps, unit: "1/s", n: rows, note: "median of per-sweep rows/latency"},
			metric{name: "p50_ms", value: median(lat) * 1e3, unit: "ms", n: len(lat)},
			metric{name: "first_row_p50_ms", value: median(first) * 1e3, unit: "ms", n: len(first)},
			metric{name: "p99_ms", value: quantile(rowLat, 0.99) * 1e3, unit: "ms", n: len(rowLat),
				note: "per-row latency, submit to SSE point event"},
		)
		detail = append(detail,
			metric{name: "sweep_points_per_s", value: pps, unit: "1/s", n: rows},
			metric{name: "sweep_p50_s", value: median(lat), unit: "s", n: len(lat)},
			metric{name: "first_row_p50_s", value: median(first), unit: "s", n: len(first)},
		)
		return gated, detail
	}
	ws := p.windows()
	gated = append(gated,
		metric{name: "ops_per_s", value: ws.rps, unit: "1/s", n: ws.n, note: ws.note},
		metric{name: "p50_ms", value: ws.p50 * 1e3, unit: "ms", n: ws.n, note: ws.note},
		metric{name: "first_row_p50_ms", value: ws.ttfb50 * 1e3, unit: "ms", n: ws.n,
			note: "time to the response headers; " + ws.note},
		metric{name: "p99_ms", value: ws.p99 * 1e3, unit: "ms", n: ws.n, note: "whole run"},
	)
	detail = append(detail,
		metric{name: "eval_rps", value: ws.rps, unit: "1/s", n: ws.n, note: ws.spread},
		metric{name: "eval_p50_ms", value: ws.p50 * 1e3, unit: "ms", n: ws.n, note: ws.note},
		metric{name: "eval_p99_ms", value: ws.p99 * 1e3, unit: "ms", n: ws.n, note: "whole run"},
	)
	return gated, detail
}

// window is the length of the slices an evaluate run is cut into: each
// metric but the p99 is the median of its per-window values, so one
// disturbed second moves it no more than any other. The p99 is always
// taken over the whole run: a window holds too few misses for its own.
const window = time.Second

type windowed struct {
	n                     int
	rps, p50, ttfb50, p99 float64
	note, spread          string
}

func (p *pass) windows() windowed {
	ws := windowed{n: len(p.evals)}
	full := int(p.elapsed / window)
	buckets := make([][]evalSample, max(full, 1))
	for _, s := range p.evals {
		if i := int(s.done / window); i < len(buckets) {
			buckets[i] = append(buckets[i], s)
		}
	}
	var rps, p50, ttfb []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		lat, tt := make([]time.Duration, len(b)), make([]time.Duration, len(b))
		for i, s := range b {
			lat[i], tt[i] = s.lat, s.ttfb
		}
		rps = append(rps, float64(len(b))/window.Seconds())
		p50 = append(p50, median(lat))
		ttfb = append(ttfb, median(tt))
	}
	ws.rps, ws.p50, ws.ttfb50 = medianOf(rps), medianOf(p50), medianOf(ttfb)
	sort.Float64s(rps)
	ws.note = fmt.Sprintf("median of %d 1-s windows", len(rps))
	if len(rps) > 0 {
		ws.spread = fmt.Sprintf("window rps min %.0f median %.0f max %.0f", rps[0], ws.rps, rps[len(rps)-1])
	}
	lat := make([]time.Duration, len(p.evals))
	for i, s := range p.evals {
		lat[i] = s.lat
	}
	ws.p99 = quantile(lat, 0.99)
	return ws
}

// medianOf is the median of the values (the mean of the middle two for
// an even count).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
