package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"efficsense/internal/core"
	"efficsense/internal/experiments"
	"efficsense/internal/serve"
)

// observed collects every row a workload returned, keyed by design
// point. The first row of a point is kept; every later row of the same
// point must be bit-identical to it, so the reference only has to
// evaluate each distinct point once.
type observed struct {
	rows       map[string]row
	points     map[string]core.DesignPoint
	order      []string
	n          int
	mismatches []string
}

func newObserved() *observed {
	return &observed{rows: make(map[string]row), points: make(map[string]core.DesignPoint)}
}

// tamper, when set, rewrites the rows of every response before they are
// checked. The smoke test uses it to prove that a wrong value, a row for
// another point and a missing row each fail the run.
var tamper func([]row) []row

// addEval records the response to a single-point request for want. The
// point the server echoes must be the one requested.
func (o *observed) addEval(want serve.PointSpec, r row) {
	rows := []row{r}
	if tamper != nil {
		rows = tamper(rows)
	}
	wantDP, err := designPoint(want)
	if err != nil {
		o.mismatch("requested point %+v: %v", want, err)
		return
	}
	if len(rows) != 1 {
		o.mismatch("%s: %d rows for one requested point", wantDP, len(rows))
	}
	for _, r := range rows {
		if dp, err := designPoint(serveSpec(r)); err == nil && dp.Key() != wantDP.Key() {
			o.mismatch("%s: the response is for %s", wantDP, dp)
		}
		o.add(r)
	}
}

// addSweep records one completed sweep at the given noise floor. Its
// NDJSON rows and its SSE point events must each cover exactly the
// submitted points (want), once each.
func (o *observed) addSweep(want map[string]bool, noise float64, ndjson, sse []row) {
	for _, src := range []struct {
		name string
		rows []row
	}{{"NDJSON", ndjson}, {"SSE", sse}} {
		rows := src.rows
		if tamper != nil {
			rows = tamper(rows)
		}
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			o.add(r)
			dp, err := designPoint(serveSpec(r))
			if err != nil {
				continue // add has recorded it
			}
			k := dp.Key()
			switch {
			case seen[k]:
				o.mismatch("sweep at %g V: %s row for %s repeated", noise, src.name, dp)
			case !want[k]:
				o.mismatch("sweep at %g V: %s row for %s, which was not submitted", noise, src.name, dp)
			}
			seen[k] = true
		}
		missing := 0
		for k := range want {
			if !seen[k] {
				missing++
			}
		}
		if missing > 0 {
			o.mismatch("sweep at %g V: %s rows miss %d of the %d submitted points", noise, src.name, missing, len(want))
		}
	}
}

// add records one returned row.
func (o *observed) add(r row) {
	o.n++
	dp, err := designPoint(serveSpec(r))
	if err != nil {
		o.mismatch("row with unparseable point %+v: %v", r, err)
		return
	}
	key := dp.Key()
	if prev, ok := o.rows[key]; ok {
		if d := diffRows(prev, r); d != "" {
			o.mismatch("%s: two responses differ: %s", dp, d)
		}
		return
	}
	o.rows[key] = r
	o.points[key] = dp
	o.order = append(o.order, key)
}

// merge folds another collector into o.
func (o *observed) merge(other *observed) {
	n := o.n
	for _, key := range other.order {
		o.add(other.rows[key])
	}
	o.n = n + other.n
	o.mismatches = append(o.mismatches, other.mismatches...)
}

// serveSpec is the wire point a row reports.
func serveSpec(r row) serve.PointSpec {
	return serve.PointSpec{Arch: r.Arch, Bits: r.Bits, LNANoise: r.Noise, M: r.M, CHold: r.CHold}
}

func (o *observed) mismatch(format string, args ...interface{}) {
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	} else if len(o.mismatches) == 20 {
		o.mismatches = append(o.mismatches, "... further mismatches elided")
	}
}

// bitsEqual compares two decoded floats bit for bit; nil (JSON null)
// stands for a non-finite value.
func bitsEqual(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return math.Float64bits(*a) == math.Float64bits(*b)
}

func fmtPtr(p *float64) string {
	if p == nil {
		return "null"
	}
	return fmt.Sprintf("%v (%#016x)", *p, math.Float64bits(*p))
}

// diffRows describes the first difference between two rows of one
// point ("" when they agree bit for bit).
func diffRows(a, b row) string {
	fields := []struct {
		name string
		x, y *float64
	}{
		{"snr_db", a.SNRdB, b.SNRdB},
		{"accuracy", a.Accuracy, b.Accuracy},
		{"total_w", a.TotalW, b.TotalW},
		{"area_caps", a.AreaCaps, b.AreaCaps},
	}
	for _, f := range fields {
		if !bitsEqual(f.x, f.y) {
			return fmt.Sprintf("%s %s vs %s", f.name, fmtPtr(f.x), fmtPtr(f.y))
		}
	}
	if a.PowerW != nil && b.PowerW != nil {
		if d := diffPower(a.PowerW, b.PowerW); d != "" {
			return d
		}
	}
	return ""
}

func diffPower(a, b map[string]*float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("power_w has %d vs %d components", len(a), len(b))
	}
	for k, v := range a {
		if !bitsEqual(v, b[k]) {
			return fmt.Sprintf("power_w[%s] %s vs %s", k, fmtPtr(v), fmtPtr(b[k]))
		}
	}
	return ""
}

// finite maps a reference float to its wire form: the server writes a
// non-finite value as null.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// referenceRow renders an in-process result the way the wire carries it.
func referenceRow(r core.Result) row {
	out := row{
		Arch: r.Point.Arch.String(), Bits: r.Point.Bits, Noise: r.Point.LNANoise,
		M: r.Point.M, CHold: r.Point.CHold,
		SNRdB: finite(r.MeanSNRdB), Accuracy: finite(r.Accuracy),
		TotalW: finite(r.TotalPower), AreaCaps: finite(r.AreaCaps),
		PowerW: make(map[string]*float64),
	}
	for _, c := range r.Power.Components() {
		out.PowerW[string(c)] = finite(r.Power[c])
	}
	return out
}

// reference is the in-process evaluation every returned row is checked
// against, built from the same options the daemon resolves, outside the
// timed phase.
type reference struct {
	suite *experiments.Suite
	ev    *core.Evaluator
}

func newReference(opts experiments.Options) *reference {
	suite := experiments.NewSuite(opts)
	return &reference{suite: suite, ev: suite.Evaluator()}
}

// evaluate scores the points in-process, grouped by GroupKey, on
// workers goroutines. Results come back keyed by point key.
func (ref *reference) evaluate(pts []core.DesignPoint, workers int) map[string]core.Result {
	groups := make(map[core.DesignPoint][]core.DesignPoint)
	var order []core.DesignPoint
	for _, p := range pts {
		k := p.GroupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	out := make(map[string]core.Result, len(pts))
	var mu sync.Mutex
	jobs := make(chan []core.DesignPoint)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				rs := ref.ev.EvaluateBatch(context.Background(), g)
				mu.Lock()
				for _, r := range rs {
					out[r.Point.Key()] = r
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range order {
		jobs <- groups[k]
	}
	close(jobs)
	wg.Wait()
	return out
}

// check compares every observed point with its reference result and
// returns the mismatches (observed.mismatches included).
func check(obs *observed, refs map[string]core.Result) []string {
	bad := append([]string(nil), obs.mismatches...)
	for _, key := range obs.order {
		ref, ok := refs[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no reference result", obs.points[key]))
			continue
		}
		if ref.Err != nil {
			bad = append(bad, fmt.Sprintf("%s: reference evaluation failed: %v", obs.points[key], ref.Err))
			continue
		}
		got := obs.rows[key]
		want := referenceRow(ref)
		if got.PowerW == nil {
			want.PowerW = nil // NDJSON rows carry no breakdown
		}
		if d := diffRows(got, want); d != "" {
			bad = append(bad, fmt.Sprintf("%s: served vs in-process: %s", obs.points[key], d))
		}
		if len(bad) > 20 {
			break
		}
	}
	return bad
}

// simDigest hashes the result bits of the given points (in key order),
// so numeric drift between two builds is visible at a glance.
func simDigest(refs map[string]core.Result, keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, k := range sorted {
		r := refs[k]
		h.Write([]byte(k))
		put(r.MeanSNRdB)
		put(r.Accuracy)
		put(r.TotalPower)
		put(r.AreaCaps)
		for _, c := range r.Power.Components() {
			h.Write([]byte(c))
			put(r.Power[c])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
