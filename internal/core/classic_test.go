package core

import (
	"fmt"

	"efficsense/internal/chain"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
)

// evaluateClassic is the original per-point evaluation loop, scoring each
// record through the chain's classic RunGrid. It is the reference the
// batch session path is pinned against (TestEvaluateBatchGoldenEquivalence).
func (e *Evaluator) evaluateClassic(p DesignPoint) Result {
	common := e.common
	common.Bits = p.Bits
	common.LNANoise = p.LNANoise
	var run func(grid []float64) chain.Output
	var area float64
	switch p.Arch {
	case ArchBaseline:
		b := chain.NewBaseline(common)
		run = b.RunGrid
		area = b.Area()
	case ArchCS:
		c := chain.NewCS(e.csConfig(common, p))
		run = c.RunGrid
		area = c.Area()
	case ArchCSDigital:
		c := chain.NewDigitalCS(e.csConfig(common, p))
		run = c.RunGrid
		area = c.Area()
	case ArchCSActive:
		c := chain.NewActiveCS(e.csConfig(common, p))
		run = c.RunGrid
		area = c.Area()
	default:
		panic(fmt.Sprintf("core: unknown architecture %d", p.Arch))
	}
	res := Result{Point: p, AreaCaps: area, Power: power.Breakdown{}}
	waves := make([][]float64, len(e.grids))
	var snrSum float64
	var rate float64
	for i, grid := range e.grids {
		out := run(grid)
		rate = out.Rate
		// Refer the output back to electrode scale for the detector (the
		// chain gain is a known design value, not information).
		if out.Gain > 0 {
			for j := range out.Samples {
				out.Samples[j] /= out.Gain
			}
		}
		waves[i] = out.Samples
		n := len(out.Samples)
		ref := e.refs[i]
		if len(ref) < n {
			n = len(ref)
		}
		snrSum += dsp.SNRVersusReference(ref[:n], out.Samples[:n])
		for c, v := range out.Power {
			res.Power[c] += v
		}
	}
	nRec := float64(len(e.grids))
	for c := range res.Power {
		res.Power[c] /= nRec
	}
	res.TotalPower = res.Power.Total()
	res.MeanSNRdB = snrSum / nRec
	if e.metric != nil {
		win := 0
		if e.cfg.WindowSeconds > 0 {
			win = int(e.cfg.WindowSeconds * rate)
		}
		res.Accuracy, res.Confusion = e.metric.Score(MetricContext{
			Waves: waves, Refs: e.refs, Rate: rate, Labels: e.labels, WindowSamples: win,
		})
	}
	return res
}
