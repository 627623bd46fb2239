package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"efficsense/internal/chain"
	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
	"efficsense/internal/tech"
	"efficsense/internal/wal"
)

// The stages inside core have no seam a wrapper could sit on, so the
// traced run measures them by replaying a sample of the run's points
// through the public functions of each layer, single-threaded, after
// the timed phase: scenario synthesis, resampling, the chain stages,
// OMP/BOMP frame recovery, the quality metric, detector training, the
// journal and the NDJSON emitter.

// replayed is the per-stage accounting of a replay: total time and the
// unit count it is divided by.
type replayed struct {
	dur time.Duration
	n   int
}

func (r *replayed) time(n int, fn func()) {
	start := time.Now()
	fn()
	r.dur += time.Since(start)
	r.n += n
}

// per returns the mean time per unit in the given unit of time.
func (r replayed) per(unit time.Duration) float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.dur) / float64(r.n) / float64(unit)
}

// minReplay is the least wall time a stage replay accumulates before it
// stops repeating, so short stages are timed over many calls.
const minReplay = 100 * time.Millisecond

// replayStages measures the per-stage metrics over the sample points
// (at most three per architecture are used).
func replayStages(opts experiments.Options, ref *reference, sample []core.DesignPoint, results []core.Result, workdir string) (map[string]float64, error) {
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)

	// Synthesis and resampling: the evaluator's precompute.
	var synth replayed
	var ds *eeg.Dataset
	for synth.dur < minReplay {
		synth.time(opts.Records, func() { ds = scn.Synthesize(opts.Seed, opts.Records) })
	}
	if scn.Name == "ecg-telemonitoring" {
		out["ecg.synth_ms_per_record"] = synth.per(time.Millisecond)
	} else {
		out["eeg.synth_ms_per_record"] = synth.per(time.Millisecond)
	}
	common := chain.Common{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(),
		InputPeak: scn.InputPeak, SimOversample: 4, Seed: opts.Seed,
	}
	var resample replayed
	grids := make([][]float64, len(ds.Records))
	for resample.dur < minReplay {
		resample.time(len(ds.Records), func() {
			for i, r := range ds.Records {
				grids[i] = dsp.Resample(r.Samples, r.Rate, common.GridRate())
			}
		})
	}
	out["dsp.resample_ms_per_record"] = resample.per(time.Millisecond)
	refs := make([][]float64, len(grids))
	labels := make([]eeg.Class, len(grids))
	for i, g := range grids {
		refs[i] = chain.ReferenceGrid(common, g)
		labels[i] = ds.Records[i].Label
	}

	// Chain stages, per record, and the frames they hand to recovery.
	perArch := make(map[core.Architecture]int)
	var amplify, digitize, encode, finish, digital, active, score replayed
	var omp, bomp replayed
	var atoms, frames int
	sess := chain.NewEvalSession(opts.Seed)
	metric := ref.suite.Metric()
	for _, p := range sample {
		if perArch[p.Arch] >= 3 {
			continue
		}
		perArch[p.Arch]++
		c := common
		c.Bits, c.LNANoise = p.Bits, p.LNANoise
		csCfg := chain.CSConfig{Common: c, M: p.M, NPhi: 384, Sparsity: 2, CHold: p.CHold, ReconMethod: scn.ReconMethod}
		waves := make([][]float64, len(grids))
		var rate float64
		keep := func(i int, o chain.Output) {
			waves[i] = scaled(o)
			rate = o.Rate
		}
		switch p.Arch {
		case core.ArchBaseline:
			b := chain.NewBaseline(c)
			for i, g := range grids {
				var amp []float64
				amplify.time(1, func() { amp = b.AmplifySession(sess, g) })
				var o chain.Output
				digitize.time(1, func() { o = b.DigitizeSession(sess, amp, nil) })
				keep(i, o)
			}
		case core.ArchCS:
			ch := chain.NewCS(csCfg)
			var rec frameSolver
			if scn.ReconMethod == cs.MethodBOMP {
				rec = newBOMPSolver(csCfg)
			} else {
				rec = newOMPSolver(csCfg)
			}
			for i, g := range grids {
				var y []float64
				encode.time(1, func() { y = ch.EncodeSession(sess, g) })
				yc := append([]float64(nil), y...)
				var o chain.Output
				finish.time(1, func() { o = ch.FinishSession(sess, yc, nil) })
				keep(i, o)
				for off := 0; off+p.M <= len(yc); off += p.M {
					frame := yc[off : off+p.M]
					if scn.ReconMethod == cs.MethodBOMP {
						bomp.time(1, func() { rec.solve(frame) })
					} else {
						var n int
						omp.time(1, func() { n = rec.solve(frame) })
						atoms += n
						frames++
					}
				}
			}
		case core.ArchCSDigital:
			d := chain.NewDigitalCS(csCfg)
			for i, g := range grids {
				var o chain.Output
				digital.time(1, func() { o = d.RunGrid(g) })
				keep(i, o)
			}
		case core.ArchCSActive:
			a := chain.NewActiveCS(csCfg)
			for i, g := range grids {
				var o chain.Output
				active.time(1, func() { o = a.RunGrid(g) })
				keep(i, o)
			}
		}
		if metric != nil {
			mc := core.MetricContext{Waves: waves, Refs: refs, Rate: rate, Labels: labels}
			score.time(len(waves), func() { metric.Score(mc) })
		}
	}
	out["chain.amplify_ms_per_record"] = amplify.per(time.Millisecond)
	out["chain.digitize_ms_per_record"] = digitize.per(time.Millisecond)
	out["chain.cs_encode_ms_per_record"] = encode.per(time.Millisecond)
	out["chain.cs_finish_ms_per_record"] = finish.per(time.Millisecond)
	out["chain.digital_ms_per_record"] = digital.per(time.Millisecond)
	out["chain.active_ms_per_record"] = active.per(time.Millisecond)
	out["cs.omp_us_per_frame"] = omp.per(time.Microsecond)
	out["cs.bomp_us_per_frame"] = bomp.per(time.Microsecond)
	out["cs.atoms_per_frame"] = 0
	if frames > 0 {
		out["cs.atoms_per_frame"] = float64(atoms) / float64(frames)
	}
	out["classify.score_us_per_record"] = score.per(time.Microsecond)

	// Detector training: the bulk of an EEG setup.
	out["classify.train_s"] = 0
	if ref.suite.Detector() != nil {
		train := eeg.Synthesize(eeg.DefaultConfig(opts.Seed+1000, opts.TrainRecords))
		var tr replayed
		tr.time(1, func() {
			classify.TrainDetector(train, classify.DetectorConfig{
				Seed:          opts.Seed,
				WindowSeconds: opts.WindowSeconds,
				Train:         classify.TrainOptions{Epochs: opts.Epochs},
			})
		})
		out["classify.train_s"] = tr.per(time.Second)
	}

	if err := replayJournal(results, workdir, out); err != nil {
		return nil, err
	}

	var ndjson replayed
	for ndjson.dur < minReplay && len(results) > 0 {
		ndjson.time(len(results), func() { _ = experiments.NDJSONResults(io.Discard, results) })
	}
	out["report.ndjson_us_per_row"] = ndjson.per(time.Microsecond)
	return out, nil
}

// scaled refers a chain output back to electrode scale, as the
// evaluator does before scoring.
func scaled(o chain.Output) []float64 {
	w := append([]float64(nil), o.Samples...)
	if o.Gain > 0 {
		for j := range w {
			w[j] /= o.Gain
		}
	}
	return w
}

// frameSolver recovers one measurement frame and reports the support
// size it used.
type frameSolver interface {
	solve(y []float64) int
}

// csGeometry builds the nominal effective matrix a CS chain of this
// configuration reconstructs against (the chain's defaults applied).
func csGeometry(cfg chain.CSConfig) (a [][]float64, maxAtoms int) {
	chold := cfg.CHold
	if chold <= 0 {
		chold = 80e-15
	}
	csample := chold / 16
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	maxAtoms = max(cfg.M/4, 4)
	return cs.NominalEffectiveMatrix(phi, csample, chold), maxAtoms
}

// ompSolver is the Batch-OMP solve the passive CS chain runs per frame.
type ompSolver struct {
	omp      *cs.BatchOMP
	theta    []float64
	sc       cs.Scratch
	maxAtoms int
}

func newOMPSolver(cfg chain.CSConfig) *ompSolver {
	a, maxAtoms := csGeometry(cfg)
	dct := dsp.NewDCT(cfg.NPhi)
	dict := make([][]float64, cfg.NPhi)
	for k := range dict {
		psi := dct.Column(k)
		col := make([]float64, len(a))
		for i := range a {
			col[i] = dsp.Dot(a[i], psi)
		}
		dict[k] = col
	}
	return &ompSolver{omp: cs.NewBatchOMP(dict), theta: make([]float64, cfg.NPhi), maxAtoms: maxAtoms}
}

func (s *ompSolver) solve(y []float64) int {
	theta := s.omp.SolveInto(s.theta, y, s.maxAtoms, 1e-4, &s.sc)
	n := 0
	for _, v := range theta {
		if v != 0 {
			n++
		}
	}
	return n
}

// bompSolver is the block-OMP frame recovery of the telemonitoring
// scenario.
type bompSolver struct{ rec *cs.MethodReconstructor }

func newBOMPSolver(cfg chain.CSConfig) *bompSolver {
	a, maxAtoms := csGeometry(cfg)
	return &bompSolver{rec: cs.NewMethodReconstructor(a, cfg.NPhi, cs.ReconOptions{
		Method: cs.MethodBOMP, MaxAtoms: maxAtoms, Tol: 1e-4,
	})}
}

func (s *bompSolver) solve(y []float64) int {
	s.rec.ReconstructFrame(y)
	return 0
}

// replayJournal appends result-row records to a scratch journal and
// times the appends and the fsyncs.
func replayJournal(results []core.Result, workdir string, out map[string]float64) error {
	dir, err := os.MkdirTemp(workdir, "walreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	type journalRow struct {
		Job    string     `json:"job"`
		I      int        `json:"i"`
		Result walPayload `json:"result"`
	}
	var appends, syncs replayed
	for i := 0; i < 256 && len(results) > 0; i++ {
		rec := journalRow{Job: "sweep-1", I: i, Result: walPayloadOf(results[i%len(results)])}
		var aerr error
		appends.time(1, func() { aerr = log.Append("row", rec) })
		if aerr != nil {
			return fmt.Errorf("journal replay: %w", aerr)
		}
		if i%32 == 31 {
			var serr error
			syncs.time(1, func() { serr = log.Sync() })
			if serr != nil {
				return fmt.Errorf("journal replay: %w", serr)
			}
		}
	}
	out["wal.append_us"] = appends.per(time.Microsecond)
	out["wal.fsync_ms"] = syncs.per(time.Millisecond)
	return nil
}

// walPayload carries the fields the daemon journals per result row.
type walPayload struct {
	Arch     string             `json:"arch"`
	Bits     int                `json:"bits"`
	LNANoise float64            `json:"lna_noise"`
	M        int                `json:"m,omitempty"`
	CHold    float64            `json:"chold,omitempty"`
	SNRdB    float64            `json:"snr_db"`
	Accuracy float64            `json:"accuracy"`
	TotalW   float64            `json:"total_w"`
	PowerW   map[string]float64 `json:"power_w,omitempty"`
	AreaCaps float64            `json:"area_caps"`
}

func walPayloadOf(r core.Result) walPayload {
	p := walPayload{
		Arch: r.Point.Arch.String(), Bits: r.Point.Bits, LNANoise: r.Point.LNANoise,
		M: r.Point.M, CHold: r.Point.CHold,
		SNRdB: r.MeanSNRdB, Accuracy: r.Accuracy, TotalW: r.TotalPower, AreaCaps: r.AreaCaps,
		PowerW: make(map[string]float64),
	}
	for _, c := range r.Power.Components() {
		p.PowerW[string(c)] = r.Power[c]
	}
	return p
}
