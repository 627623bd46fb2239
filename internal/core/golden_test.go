package core_test

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/scenario"
	"efficsense/internal/tech"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from the current build")

const goldenFile = "testdata/golden_digests.txt"

// goldenSeed fixes every stochastic choice of the pinned sweeps.
const goldenSeed = 5

// goldenSweep is a small seeded sweep over every architecture of a
// scenario: for each, two noise floors, one measurement count and a full
// bits {6,7,8} group, so grouped evaluation is pinned along with the
// per-point figures.
func goldenSweep(scn *scenario.Scenario) []core.DesignPoint {
	space := scn.Space(2)
	noise := []float64{space.LNANoise[0], space.LNANoise[len(space.LNANoise)-1]}
	var pts []core.DesignPoint
	for _, a := range scn.Architectures {
		for _, vn := range noise {
			for _, bits := range []int{6, 7, 8} {
				p := core.DesignPoint{Arch: a, Bits: bits, LNANoise: vn}
				if a != core.ArchBaseline {
					p.M = 96
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// goldenEvaluator wires a scenario's evaluator the way the experiments
// suite does, at a reduced scale: two evaluation records and a briefly
// trained detector.
func goldenEvaluator(t *testing.T, scn *scenario.Scenario) *core.Evaluator {
	t.Helper()
	cfg := scn.EvaluatorConfig()
	cfg.Tech = tech.GPDK045()
	cfg.Sys = tech.DefaultSystem()
	cfg.Dataset = scn.Synthesize(goldenSeed, 2)
	cfg.WindowSeconds = classify.DefaultWindowSeconds
	cfg.Seed = goldenSeed
	if scn.NewMetric != nil {
		cfg.Metric = scn.NewMetric(scenario.MetricConfig{
			Seed:          goldenSeed,
			TrainRecords:  6,
			WindowSeconds: cfg.WindowSeconds,
			Epochs:        5,
		})
	}
	ev, err := core.NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// resultDigest hashes the exact bits of every field of a Result: the
// point, each figure of interest, the confusion counts, every power
// component in name order and the error text.
func resultDigest(r core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(r.Point.Key()))
	for _, v := range []float64{r.MeanSNRdB, r.Accuracy, r.TotalPower, r.AreaCaps} {
		put(math.Float64bits(v))
	}
	for _, n := range []int{r.Confusion.TP, r.Confusion.TN, r.Confusion.FP, r.Confusion.FN} {
		put(uint64(n))
	}
	comps := r.Power.Components()
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	for _, c := range comps {
		h.Write([]byte(c))
		put(math.Float64bits(r.Power[c]))
	}
	if r.Err != nil {
		h.Write([]byte(r.Err.Error()))
	}
	return h.Sum64()
}

// goldenLines evaluates every scenario's golden sweep and renders one
// "scenario | point | digest" line per design point.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, scn := range scenario.All() {
		pts := goldenSweep(scn)
		res := goldenEvaluator(t, scn).EvaluateBatch(context.Background(), pts)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s %v: %v", scn.Name, pts[i], r.Err)
			}
			lines = append(lines, fmt.Sprintf("%s | %v | %016x", scn.Name, pts[i], resultDigest(r)))
		}
	}
	return lines
}

// TestGoldenDigests pins the absolute numbers, not only relations: the
// exact float64 bits of every Result field of a seeded sweep per
// registered scenario must match the checked-in digests, on the assembly
// kernels and under -tags purego alike. A deliberate numeric change
// regenerates the file with
//
//	go test ./internal/core -run TestGoldenDigests -update-golden
//
// and says so in the change log.
func TestGoldenDigests(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		header := "# Golden result digests: scenario | design point | FNV-64a of every Result field's bits.\n"
		if err := os.WriteFile(goldenFile, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("golden sweep has %d points, %s pins %d", len(got), goldenFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
