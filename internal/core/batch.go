package core

import (
	"context"
	"fmt"

	"efficsense/internal/chain"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
)

// evalScratch is the per-worker reusable state of the batch path: the
// chain evaluation session (noise banks and waveform buffers) plus the
// retained output rows the detector scores at the end of each point.
type evalScratch struct {
	sess *chain.EvalSession
	rows [][]float64
}

func (sc *evalScratch) row(i int) []float64 {
	for len(sc.rows) <= i {
		sc.rows = append(sc.rows, nil)
	}
	return sc.rows[i]
}

// pointAccum accumulates one design point's per-record outputs into the
// figures of interest, mirroring the classic Evaluate loop exactly.
type pointAccum struct {
	res    Result
	snrSum float64
	rate   float64
	waves  [][]float64 // retained for the quality metric; nil without one
}

func (a *pointAccum) add(e *Evaluator, ri int, o chain.Output) {
	a.rate = o.Rate
	// Refer the output back to electrode scale for the detector (the
	// chain gain is a known design value, not information).
	if o.Gain > 0 {
		for j := range o.Samples {
			o.Samples[j] /= o.Gain
		}
	}
	if a.waves != nil {
		a.waves[ri] = o.Samples
	}
	n := len(o.Samples)
	ref := e.refs[ri]
	if len(ref) < n {
		n = len(ref)
	}
	a.snrSum += dsp.SNRVersusReference(ref[:n], o.Samples[:n])
	for c, v := range o.Power {
		a.res.Power[c] += v
	}
	a.res.AreaCaps = o.AreaCaps
}

// EvaluateBatch scores a batch of design points over every record and
// returns one Result per point, in input order. Results are bit-identical
// to scoring each point through its chain's classic RunGrid; the batch
// form exists so work that is invariant across points — the front half of
// each record's chain, the reconstructor of a CS geometry, the session
// noise banks and scratch buffers — is paid for once per group instead of
// once per point.
//
// Points sharing (Arch, LNANoise, M, CHold) are grouped internally; input
// order is otherwise irrelevant. A cancelled ctx marks the not-yet-
// evaluated points with Err = ctx.Err() (the PR 5 degradation contract:
// per-point error rows, never a lost batch). Safe for concurrent use.
func (e *Evaluator) EvaluateBatch(ctx context.Context, pts []DesignPoint) []Result {
	out := make([]Result, len(pts))
	if len(pts) == 0 {
		return out
	}
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)
	var order []DesignPoint
	groups := map[DesignPoint][]int{}
	for i, p := range pts {
		// Points in a group differ only in ADC resolution (see
		// DesignPoint.GroupKey), so they share every record's front half.
		k := p.GroupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idxs := groups[k]
		if err := ctx.Err(); err != nil {
			for _, i := range idxs {
				out[i] = Result{Point: pts[i], Err: err}
			}
			continue
		}
		e.evalGroup(sc, pts, idxs, out)
	}
	return out
}

// sessionChain is a chain in its two-half session form (see
// chain.EvalSession): FrontSession runs the resolution-independent half
// of a record, FinishSession completes one design point from it.
type sessionChain interface {
	FrontSession(s *chain.EvalSession, grid []float64) []float64
	FinishSession(s *chain.EvalSession, front, dst []float64) chain.Output
}

// groupChains builds one chain per member of a batch group, in idxs
// order. The members differ only in ADC resolution, so the digital and
// active CS variants build one reconstructor for the whole group (the
// passive CS chain shares its plan through the chain package's geometry
// cache; the baseline has nothing to share).
func (e *Evaluator) groupChains(pts []DesignPoint, idxs []int) []sessionChain {
	lead := pts[idxs[0]]
	common := e.common
	common.LNANoise = lead.LNANoise
	chains := make([]sessionChain, len(idxs))
	bits := make([]int, len(idxs))
	for j, i := range idxs {
		bits[j] = pts[i].Bits
	}
	switch lead.Arch {
	case ArchBaseline:
		for j, b := range bits {
			common.Bits = b
			chains[j] = chain.NewBaseline(common)
		}
	case ArchCS:
		for j, b := range bits {
			common.Bits = b
			chains[j] = chain.NewCS(e.csConfig(common, lead))
		}
	case ArchCSDigital:
		for j, c := range chain.NewDigitalCSGroup(e.csConfig(common, lead), bits) {
			chains[j] = c
		}
	case ArchCSActive:
		for j, c := range chain.NewActiveCSGroup(e.csConfig(common, lead), bits) {
			chains[j] = c
		}
	default:
		panic(fmt.Sprintf("core: unknown architecture %d", lead.Arch))
	}
	return chains
}

// newAccums prepares one accumulator per group member. Only the quality
// metric needs every record's waveform at once; without a metric a
// single output row per point is reused across records.
func (e *Evaluator) newAccums(pts []DesignPoint, idxs []int) ([]*pointAccum, int) {
	rowsPer := 1
	if e.metric != nil {
		rowsPer = len(e.grids)
	}
	accs := make([]*pointAccum, len(idxs))
	for j, i := range idxs {
		a := &pointAccum{res: Result{Point: pts[i], Power: power.Breakdown{}}}
		if e.metric != nil {
			a.waves = make([][]float64, len(e.grids))
		}
		accs[j] = a
	}
	return accs, rowsPer
}

func (e *Evaluator) finishAccums(accs []*pointAccum, idxs []int, out []Result) {
	nRec := float64(len(e.grids))
	for j, a := range accs {
		res := a.res
		for c := range res.Power {
			res.Power[c] /= nRec
		}
		res.TotalPower = res.Power.Total()
		res.MeanSNRdB = a.snrSum / nRec
		if e.metric != nil {
			win := 0
			if e.cfg.WindowSeconds > 0 {
				win = int(e.cfg.WindowSeconds * a.rate)
			}
			res.Accuracy, res.Confusion = e.metric.Score(MetricContext{
				Waves: a.waves, Refs: e.refs, Rate: a.rate, Labels: e.labels, WindowSamples: win,
			})
		}
		out[idxs[j]] = res
	}
}

// evalGroup scores one batch group. The front half of each record's chain
// is resolution-independent, so the lead chain computes it once and every
// member finishes from it through its own stateful converter, in record
// order — exactly the stream consumption of a per-point run.
func (e *Evaluator) evalGroup(sc *evalScratch, pts []DesignPoint, idxs []int, out []Result) {
	chains := e.groupChains(pts, idxs)
	accs, rowsPer := e.newAccums(pts, idxs)
	for ri, grid := range e.grids {
		front := chains[0].FrontSession(sc.sess, grid)
		for j, c := range chains {
			slot := j*rowsPer + ri%rowsPer
			o := c.FinishSession(sc.sess, front, sc.row(slot))
			sc.rows[slot] = o.Samples
			accs[j].add(e, ri, o)
		}
	}
	e.finishAccums(accs, idxs, out)
}
