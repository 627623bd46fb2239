package chain

import (
	"fmt"
	"testing"

	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// gridFor resamples the multitone test input onto the simulation grid.
func gridFor(cfg Common, n int) []float64 {
	return dsp.Resample(testInput(n), 512, cfg.withDefaults().GridRate())
}

// gridChain is a chain with both the classic and the session form.
type gridChain interface {
	FrontSession(s *EvalSession, grid []float64) []float64
	FinishSession(s *EvalSession, front, dst []float64) Output
	RunGrid(grid []float64) Output
}

func requireSameOutput(t *testing.T, label string, got, want Output) {
	t.Helper()
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: length %d != %d", label, len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("%s sample %d: %v != %v", label, i, got.Samples[i], want.Samples[i])
		}
	}
	if got.Power.Total() != want.Power.Total() || got.AreaCaps != want.AreaCaps {
		t.Fatalf("%s: power/area mismatch", label)
	}
}

// checkSessionBitIdentical pins an architecture's session path to its
// classic RunGrid bit for bit, across consecutive records (the SAR
// comparator and encoder noise streams are stateful, so record order
// matters). It covers whole runs and the grouped form: a bits=7 lead
// chain runs the front half once per record and the bits=6 and bits=8
// members of the same group finish from it in turn, each of which must
// match that member's own classic run exactly (so no finish may disturb
// the shared front half). group builds one chain per resolution, the way
// a batch evaluation builds a group.
func checkSessionBitIdentical(t *testing.T, cfg Common, samples int, group func(bits ...int) []gridChain) {
	t.Helper()
	grid := gridFor(cfg, samples)
	records := [][]float64{grid[:len(grid)/2], grid[len(grid)/2:]}
	if len(records[0]) == 0 {
		t.Fatal("empty test record")
	}

	classic, fast := group(7)[0], group(7)[0]
	sess := NewEvalSession(cfg.Seed)
	var dst []float64
	for ri, rec := range records {
		got := fast.FinishSession(sess, fast.FrontSession(sess, rec), dst)
		dst = got.Samples
		requireSameOutput(t, fmt.Sprintf("record %d", ri), got, classic.RunGrid(rec))
	}

	classics := []gridChain{group(6)[0], group(8)[0]}
	members := group(7, 6, 8)
	sess2 := NewEvalSession(cfg.Seed)
	dsts := make([][]float64, len(classics))
	for ri, rec := range records {
		front := members[0].FrontSession(sess2, rec)
		for j, classic := range classics {
			got := members[j+1].FinishSession(sess2, front, dsts[j])
			dsts[j] = got.Samples
			requireSameOutput(t, fmt.Sprintf("grouped record %d member %d", ri, j), got, classic.RunGrid(rec))
		}
	}
}

func TestBaselineSessionBitIdentical(t *testing.T) {
	cfg := testCommon(7, 4e-6, 11)
	checkSessionBitIdentical(t, cfg, 4096, func(bits ...int) []gridChain {
		out := make([]gridChain, len(bits))
		for i, b := range bits {
			c := cfg
			c.Bits = b
			out[i] = NewBaseline(c)
		}
		return out
	})
}

// TestCSSessionBitIdentical covers the passive chain with OMP (the EEG
// recovery) and block-OMP (the ECG one).
func TestCSSessionBitIdentical(t *testing.T) {
	cfg := testCommon(7, 3e-6, 12)
	for _, method := range []cs.Method{cs.MethodOMP, cs.MethodBOMP} {
		t.Run(method.String(), func(t *testing.T) {
			checkSessionBitIdentical(t, cfg, 6144, func(bits ...int) []gridChain {
				out := make([]gridChain, len(bits))
				for i, b := range bits {
					c := cfg
					c.Bits = b
					out[i] = NewCS(CSConfig{Common: c, M: 96, NPhi: 256, ReconMethod: method})
				}
				return out
			})
		})
	}
}

func TestDigitalCSSessionBitIdentical(t *testing.T) {
	cfg := testCommon(7, 3e-6, 13)
	checkSessionBitIdentical(t, cfg, 6144, func(bits ...int) []gridChain {
		var out []gridChain
		for _, d := range NewDigitalCSGroup(CSConfig{Common: cfg, M: 96, NPhi: 256}, bits) {
			out = append(out, d)
		}
		return out
	})
}

func TestActiveCSSessionBitIdentical(t *testing.T) {
	cfg := testCommon(7, 3e-6, 14)
	checkSessionBitIdentical(t, cfg, 6144, func(bits ...int) []gridChain {
		var out []gridChain
		for _, a := range NewActiveCSGroup(CSConfig{Common: cfg, M: 96, NPhi: 256}, bits) {
			out = append(out, a)
		}
		return out
	})
}

// TestSessionNoiseBankMatchesDerivedStream pins the replay identity the
// session relies on: sigma·u over the banked unit draws equals the
// Normal(0, sigma) sequence of a freshly derived stream.
func TestSessionNoiseBankMatchesDerivedStream(t *testing.T) {
	sess := NewEvalSession(99)
	u := sess.lnaUnits(64)
	ref := xrand.New(99).Derive("lna-noise")
	for i, ui := range u {
		if got, want := 3.5e-6*ui, ref.Normal(0, 3.5e-6); got != want {
			t.Fatalf("draw %d: %v != %v", i, got, want)
		}
	}
}
