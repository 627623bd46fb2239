package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"efficsense/internal/classify"
	"efficsense/internal/eeg"
	"efficsense/internal/tech"
)

func batchTestEvaluator(t testing.TB, det bool) *Evaluator {
	t.Helper()
	ds := eeg.Synthesize(eeg.DefaultConfig(7, 2))
	cfg := Config{Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Dataset: ds, Seed: 7}
	if det {
		train := eeg.Synthesize(eeg.DefaultConfig(8, 4))
		cfg.Detector = classify.TrainDetector(train, classify.DetectorConfig{
			Seed: 8, Train: classify.TrainOptions{Epochs: 10},
		})
		cfg.WindowSeconds = classify.DefaultWindowSeconds
	}
	ev, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func requireIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.MeanSNRdB != want.MeanSNRdB {
		t.Fatalf("%s: SNR %v != %v", label, got.MeanSNRdB, want.MeanSNRdB)
	}
	if got.TotalPower != want.TotalPower {
		t.Fatalf("%s: power %v != %v", label, got.TotalPower, want.TotalPower)
	}
	if got.AreaCaps != want.AreaCaps {
		t.Fatalf("%s: area %v != %v", label, got.AreaCaps, want.AreaCaps)
	}
	if got.Accuracy != want.Accuracy || got.Confusion != want.Confusion {
		t.Fatalf("%s: accuracy %v/%+v != %v/%+v",
			label, got.Accuracy, got.Confusion, want.Accuracy, want.Confusion)
	}
	for c, v := range want.Power {
		if got.Power[c] != v {
			t.Fatalf("%s: power[%s] %v != %v", label, c, got.Power[c], v)
		}
	}
	if got.Point != want.Point || got.Err != nil || want.Err != nil {
		t.Fatalf("%s: point/err mismatch", label)
	}
}

// goldenPoints is a seeded sweep slice covering every architecture, mixed
// resolutions and noise floors, and two CS geometries — so grouping and
// group sharing are exercised for all four architectures, each variant
// with a full bits {6,7,8} group.
func goldenPoints() []DesignPoint {
	return []DesignPoint{
		{Arch: ArchCS, Bits: 6, LNANoise: 3e-6, M: 96},
		{Arch: ArchCS, Bits: 8, LNANoise: 3e-6, M: 96},
		{Arch: ArchBaseline, Bits: 7, LNANoise: 3e-6},
		{Arch: ArchCS, Bits: 7, LNANoise: 9e-6, M: 96},
		{Arch: ArchBaseline, Bits: 6, LNANoise: 3e-6},
		{Arch: ArchCS, Bits: 7, LNANoise: 3e-6, M: 128},
		{Arch: ArchCSDigital, Bits: 7, LNANoise: 3e-6, M: 96},
		{Arch: ArchCSActive, Bits: 8, LNANoise: 3e-6, M: 96},
		{Arch: ArchCSDigital, Bits: 6, LNANoise: 3e-6, M: 96},
		{Arch: ArchCSActive, Bits: 7, LNANoise: 3e-6, M: 96},
		{Arch: ArchCSDigital, Bits: 8, LNANoise: 3e-6, M: 96},
		{Arch: ArchCSActive, Bits: 6, LNANoise: 3e-6, M: 96},
		{Arch: ArchCS, Bits: 7, LNANoise: 3e-6, M: 96, CHold: 120e-15},
	}
}

// TestEvaluateBatchGoldenEquivalence is the golden test of the batch
// redesign: for a seeded sweep slice, the batch path must reproduce the
// classic per-point evaluation loop bit for bit — every figure of
// interest, every power component.
func TestEvaluateBatchGoldenEquivalence(t *testing.T) {
	for _, det := range []bool{false, true} {
		ev := batchTestEvaluator(t, det)
		pts := goldenPoints()
		batch := ev.EvaluateBatch(context.Background(), pts)
		if len(batch) != len(pts) {
			t.Fatalf("batch returned %d results for %d points", len(batch), len(pts))
		}
		for i, p := range pts {
			requireIdentical(t, p.String(), batch[i], ev.evaluateClassic(p))
		}
		// And batches of one (the Evaluate wrapper) agree too.
		for _, p := range pts[:3] {
			requireIdentical(t, "single "+p.String(), ev.Evaluate(p), ev.evaluateClassic(p))
		}
	}
}

// TestEvaluateBatchContextCancel pins the degradation contract: a
// cancelled context yields per-point error rows, never a panic or a
// half-written result.
func TestEvaluateBatchContextCancel(t *testing.T) {
	ev := batchTestEvaluator(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := ev.EvaluateBatch(ctx, goldenPoints()[:3])
	for i, r := range rs {
		if r.Err == nil {
			t.Fatalf("result %d: expected context error", i)
		}
		if r.TotalPower != 0 {
			t.Fatalf("result %d: partial figures alongside error", i)
		}
	}
}

// TestEvaluateBatchConcurrentVariants runs overlapping digital and active
// CS groups through EvaluateBatch from several goroutines at once: the
// shared per-group reconstructors and the pooled sessions must leave
// every result equal to a serial run.
func TestEvaluateBatchConcurrentVariants(t *testing.T) {
	ev := batchTestEvaluator(t, false)
	var pts []DesignPoint
	for _, a := range []Architecture{ArchCSDigital, ArchCSActive} {
		for _, bits := range []int{6, 7, 8} {
			pts = append(pts, DesignPoint{Arch: a, Bits: bits, LNANoise: 4e-6, M: 96})
		}
	}
	serial := ev.EvaluateBatch(context.Background(), pts)
	const workers = 4
	got := make([][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker takes an overlapping window of the groups, in
			// its own order.
			sub := append([]DesignPoint(nil), pts[w%3:w%3+4]...)
			if w%2 == 1 {
				slices.Reverse(sub)
			}
			got[w] = ev.EvaluateBatch(context.Background(), sub)
		}(w)
	}
	wg.Wait()
	for w, rs := range got {
		for _, r := range rs {
			want := serial[slices.IndexFunc(pts, func(p DesignPoint) bool { return p == r.Point })]
			requireIdentical(t, fmt.Sprintf("worker %d %v", w, r.Point), r, want)
		}
	}
}

var benchSink []Result

// BenchmarkEvaluateBatchArch measures batch evaluation per architecture:
// one group of three resolutions over fixed records, in points/s.
func BenchmarkEvaluateBatchArch(b *testing.B) {
	ev := batchTestEvaluator(b, false)
	for _, a := range Architectures() {
		b.Run(a.String(), func(b *testing.B) {
			var pts []DesignPoint
			for _, bits := range []int{6, 7, 8} {
				p := DesignPoint{Arch: a, Bits: bits, LNANoise: 4e-6}
				if a != ArchBaseline {
					p.M = 150
				}
				pts = append(pts, p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = ev.EvaluateBatch(context.Background(), pts)
			}
			b.ReportMetric(float64(b.N*len(pts))/b.Elapsed().Seconds(), "points/s")
		})
	}
}
