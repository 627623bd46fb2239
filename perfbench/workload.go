package main

import (
	"fmt"
	"math"
	"math/rand"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
	"efficsense/internal/serve"
)

// Scale fixes the daemon defaults and the per-request record count. The
// full scale is what the workloads are defined at; the tiny scale exists
// for the smoke test and exercises the same code at a fraction of the
// cost.
type scale struct {
	records      int // per-request "records" option
	trainRecords int // daemon -train-records
	epochs       int // daemon -epochs
	// setups is the number of daemon setups an untraced run measures;
	// setup_s is their median.
	setups int
}

var (
	fullScale = scale{records: 8, trainRecords: 120, epochs: 150, setups: 3}
	tinyScale = scale{records: 2, trainRecords: 10, epochs: 20, setups: 1}
)

// daemonDefaults mirrors cmd/efficsensed's flag defaults: the options
// every request inherits unless it overrides them.
func daemonDefaults(sc scale) experiments.Options {
	return experiments.Options{
		Seed:         1,
		Records:      40,
		TrainRecords: sc.trainRecords,
		NoiseSteps:   8,
		Epochs:       sc.epochs,
		MinAccuracy:  0.98,
	}
}

// workload is one named traffic mix. Everything it sends is derived from
// the benchmark seed; the daemon itself always runs at its default seed.
type workload struct {
	name         string
	scenario     string
	cacheEntries int
	// sweep selects the sweep-submitting client loop; otherwise the
	// workload is single-point /v1/evaluate traffic.
	sweep bool
	// clients is the number of closed-loop clients.
	clients int
	// fresh makes one request in freshEvery ask for a point outside
	// the warmed hot set.
	fresh bool
	// noiseLo/noiseHi bound the LNA-noise draws (the scenario's range).
	noiseLo, noiseHi float64
}

var workloads = []workload{
	{
		name: "sweep-cold", scenario: "eeg-epilepsy",
		cacheEntries: serve.DefaultCacheEntries,
		sweep:        true, clients: 1,
		noiseLo: 1e-6, noiseHi: 20e-6,
	},
	{
		name: "evaluate-hot", scenario: "ecg-telemonitoring",
		cacheEntries: serve.DefaultCacheEntries,
		clients:      2,
		noiseLo:      2e-6, noiseHi: 50e-6,
	},
	{
		name: "evaluate-mixed", scenario: "ecg-telemonitoring",
		cacheEntries: 256,
		clients:      2, fresh: true,
		noiseLo: 2e-6, noiseHi: 50e-6,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// options is the OptionsSpec every request of the workload carries.
func (w workload) options(sc scale) *serve.OptionsSpec {
	scn, rec := w.scenario, sc.records
	return &serve.OptionsSpec{Scenario: &scn, Records: &rec}
}

// serverOptions is the option set the daemon resolves those requests to:
// the reference evaluator is built from exactly this.
func (w workload) serverOptions(sc scale) experiments.Options {
	o := daemonDefaults(sc)
	o.Scenario = w.scenario
	o.Records = sc.records
	return o
}

// drawNoise draws an LNA noise floor log-uniformly over the workload's
// range.
func (w workload) drawNoise(rng *rand.Rand) float64 {
	return w.noiseLo * math.Pow(w.noiseHi/w.noiseLo, rng.Float64())
}

// The sweep-cold grid: every architecture, bits {6,7,8} and M
// {75,150,192} (baseline takes no M) at a single noise floor — 30 points.
var (
	sweepArchs = []string{"baseline", "cs", "cs-digital", "cs-active"}
	sweepBits  = []int{6, 7, 8}
	sweepM     = []int{75, 150, 192}
)

// sweepSpace is one sweep-cold request.
func sweepSpace(noise float64) *serve.SpaceSpec {
	return &serve.SpaceSpec{
		Architectures: sweepArchs,
		Bits:          sweepBits,
		LNANoise:      []float64{noise},
		M:             sweepM,
	}
}

// sweepPoints is the set of point keys a sweepSpace(noise) request
// covers: a completed sweep returns exactly these, once each. The
// request leaves the hold capacitor to the scenario's own axis.
func (w workload) sweepPoints(noise float64) map[string]bool {
	scn, err := scenario.Lookup(w.scenario)
	if err != nil {
		panic(err) // the workload table names registered scenarios
	}
	chs := scn.Space(1).CHold
	want := make(map[string]bool)
	for _, a := range sweepArchs {
		for _, b := range sweepBits {
			for _, m := range sweepM {
				for _, ch := range chs {
					dp, err := designPoint(serve.PointSpec{Arch: a, Bits: b, LNANoise: noise, M: m, CHold: ch})
					if err != nil {
						panic(err) // the grid above is fixed and valid
					}
					want[dp.Key()] = true
				}
			}
		}
	}
	return want
}

// warmSweepNoise is the fixed noise floor of the untimed warm-up sweep.
// It does not depend on the seed, so the warm-up rows — and the
// sim_digest over them — are the same in every run.
const warmSweepNoise = 4e-6

// setupProbe is the single point whose first successful evaluation ends
// a setup measurement.
func (w workload) setupProbe() serve.PointSpec {
	return serve.PointSpec{Arch: "baseline", Bits: 8, LNANoise: 5 * w.noiseLo}
}

// hotSet is the fixed 64-point working set of the evaluate workloads:
// 16 noise floors on a geometric grid over the scenario's range, each
// with two baseline and two CS configurations. It does not depend on
// the seed (the seed only orders the draws), so the warm-up rows and
// their sim_digest are the same in every run.
func (w workload) hotSet() []serve.PointSpec {
	noises := dse.GeomRange(w.noiseLo, w.noiseHi, 16)
	out := make([]serve.PointSpec, 0, 64)
	for _, vn := range noises {
		out = append(out,
			serve.PointSpec{Arch: "baseline", Bits: 8, LNANoise: vn},
			serve.PointSpec{Arch: "baseline", Bits: 6, LNANoise: vn},
			serve.PointSpec{Arch: "cs", Bits: 8, LNANoise: vn, M: 150},
			serve.PointSpec{Arch: "cs", Bits: 7, LNANoise: vn, M: 192},
		)
	}
	return out
}

// freshEvery makes every freshEvery-th request of an evaluate-mixed
// client a fresh point: exactly 10 % of requests, at a seeded offset.
const freshEvery = 10

// freshPoint is a client's k-th fresh point, outside the hot set. The
// architecture alternates and bits and M cycle (all nine CS pairs every
// 18 points), so every run asks for the same mix of cold work; the noise
// floor is a continuous draw from the seed, so every point is new.
func (w workload) freshPoint(rng *rand.Rand, k int) serve.PointSpec {
	bits := []int{6, 7, 8}[k%3]
	vn := w.drawNoise(rng)
	if k%2 == 0 {
		return serve.PointSpec{Arch: "baseline", Bits: bits, LNANoise: vn}
	}
	return serve.PointSpec{Arch: "cs", Bits: bits, LNANoise: vn, M: []int{75, 150, 192}[(k/6)%3]}
}

// designPoint converts a wire spec the way the server does.
func designPoint(p serve.PointSpec) (core.DesignPoint, error) {
	arch, err := core.ParseArchitecture(p.Arch)
	if err != nil {
		return core.DesignPoint{}, err
	}
	dp := core.DesignPoint{Arch: arch, Bits: p.Bits, LNANoise: p.LNANoise}
	if arch != core.ArchBaseline {
		dp.M, dp.CHold = p.M, p.CHold
	}
	return dp, nil
}
