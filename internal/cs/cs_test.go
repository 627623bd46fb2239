package cs

import (
	"math"
	"testing"
	"testing/quick"

	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

func TestGenerateSRBMValid(t *testing.T) {
	for _, m := range []int{75, 150, 192} {
		p := GenerateSRBM(m, 384, 2, 1)
		if err := p.Validate(); err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if p.CompressionRatio() != 384.0/float64(m) {
			t.Fatalf("compression ratio wrong for M=%d", m)
		}
	}
}

func TestGenerateSRBMReproducible(t *testing.T) {
	a := GenerateSRBM(50, 100, 2, 7)
	b := GenerateSRBM(50, 100, 2, 7)
	for j := range a.Support {
		for k := range a.Support[j] {
			if a.Support[j][k] != b.Support[j][k] {
				t.Fatal("same seed should reproduce the matrix")
			}
		}
	}
	c := GenerateSRBM(50, 100, 2, 8)
	diff := false
	for j := range a.Support {
		for k := range a.Support[j] {
			if a.Support[j][k] != c.Support[j][k] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestSRBMDenseConsistent(t *testing.T) {
	p := GenerateSRBM(10, 20, 3, 2)
	d := p.Dense()
	for j := 0; j < p.N; j++ {
		ones := 0
		for i := 0; i < p.M; i++ {
			if d[i][j] == 1 {
				ones++
			}
		}
		if ones != p.S {
			t.Fatalf("dense column %d has %d ones", j, ones)
		}
	}
	counts := p.RowCounts()
	var total int
	for _, c := range counts {
		total += c
	}
	if total != p.N*p.S {
		t.Fatalf("row counts sum %d, want %d", total, p.N*p.S)
	}
}

func TestSRBMValidateCatchesCorruption(t *testing.T) {
	p := GenerateSRBM(10, 20, 2, 3)
	p.Support[5] = []int{3} // wrong sparsity
	if p.Validate() == nil {
		t.Fatal("Validate missed wrong column sparsity")
	}
	p = GenerateSRBM(10, 20, 2, 3)
	p.Support[0] = []int{4, 4} // duplicate
	if p.Validate() == nil {
		t.Fatal("Validate missed duplicate rows")
	}
	p = GenerateSRBM(10, 20, 2, 3)
	p.Support[0] = []int{2, 99} // out of range
	if p.Validate() == nil {
		t.Fatal("Validate missed out-of-range row")
	}
}

func TestGenerateSRBMPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("s > M should panic")
		}
	}()
	GenerateSRBM(2, 10, 3, 1)
}

func idealEncoder(m, n, s int, seed int64) *Encoder {
	return NewEncoder(EncoderConfig{
		Phi:     GenerateSRBM(m, n, s, seed),
		CSample: 1e-13,
		CHold:   1.6e-12,
		Seed:    seed,
	})
}

func TestEq1Weights(t *testing.T) {
	// Two shares with C1 = C2: weights are [0.25, 0.5] (first sample
	// halved twice, second halved once).
	w := Eq1Weights(1, 1, 2)
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.5) > 1e-12 {
		t.Fatalf("Eq1Weights(1,1,2) = %v", w)
	}
	// Weights must sum to a·(1-b^count)/(1-b) < 1.
	w = Eq1Weights(1, 9, 5)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum >= 1 {
		t.Fatalf("weights sum %g, want < 1", sum)
	}
}

func TestEncodeFrameMatchesEffectiveMatrix(t *testing.T) {
	// The simulated charge sharing must agree exactly with the derived
	// linear map when noise and leakage are off.
	enc := idealEncoder(12, 48, 2, 5)
	rng := xrand.New(9)
	x := make([]float64, 48)
	rng.FillNormal(x, 0, 1)
	y := enc.EncodeFrame(x)
	a := enc.EffectiveMatrix(false)
	for i := range y {
		want := dsp.Dot(a[i], x)
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: encoder %g vs matrix %g", i, y[i], want)
		}
	}
}

func TestEffectiveMatrixNominalEqualsActualWithoutMismatch(t *testing.T) {
	enc := idealEncoder(10, 30, 2, 6)
	nom := enc.EffectiveMatrix(true)
	act := enc.EffectiveMatrix(false)
	for i := range nom {
		for j := range nom[i] {
			if math.Abs(nom[i][j]-act[i][j]) > 1e-15 {
				t.Fatal("nominal and actual matrices differ without mismatch")
			}
		}
	}
}

func TestEffectiveMatrixRowWeightsFollowEq1(t *testing.T) {
	// Build a 1×N matrix (every sample shares into the single row) and
	// check against the analytic Eq (1) weights.
	phi := &SRBM{M: 1, N: 6, S: 1, Support: [][]int{{0}, {0}, {0}, {0}, {0}, {0}}}
	enc := NewEncoder(EncoderConfig{Phi: phi, CSample: 1, CHold: 3, Seed: 1})
	a := enc.EffectiveMatrix(true)[0]
	want := Eq1Weights(1, 3, 6)
	for j := range a {
		if math.Abs(a[j]-want[j]) > 1e-12 {
			t.Fatalf("weight %d = %g, want %g", j, a[j], want[j])
		}
	}
}

func TestEncoderMismatchChangesActualMatrix(t *testing.T) {
	enc := NewEncoder(EncoderConfig{
		Phi:                 GenerateSRBM(10, 40, 2, 3),
		CSample:             1e-13,
		CHold:               1.6e-12,
		MismatchSigmaSample: 0.02,
		MismatchSigmaHold:   0.02,
		Seed:                3,
	})
	nom := enc.EffectiveMatrix(true)
	act := enc.EffectiveMatrix(false)
	var maxDiff float64
	for i := range nom {
		for j := range nom[i] {
			if d := math.Abs(nom[i][j] - act[i][j]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff == 0 {
		t.Fatal("mismatch should perturb the actual matrix")
	}
}

func TestEncoderNoiseAddsVariance(t *testing.T) {
	cfg := EncoderConfig{
		Phi:         GenerateSRBM(8, 32, 2, 4),
		CSample:     1e-15, // tiny caps → large kT/C
		CHold:       16e-15,
		Temperature: 300,
		Seed:        4,
	}
	noisy := NewEncoder(cfg)
	cfg.Temperature = 0
	clean := NewEncoder(cfg)
	x := make([]float64, 32)
	yc := clean.EncodeFrame(x)
	yn := noisy.EncodeFrame(x)
	if dsp.RMS(yc) != 0 {
		t.Fatal("clean encoder with zero input should output zeros")
	}
	if dsp.RMS(yn) == 0 {
		t.Fatal("kT/C noise missing")
	}
}

func TestEncoderLeakageDroops(t *testing.T) {
	phi := &SRBM{M: 1, N: 4, S: 1, Support: [][]int{{0}, {0}, {0}, {0}}}
	mk := func(leak float64) float64 {
		enc := NewEncoder(EncoderConfig{
			Phi: phi, CSample: 1e-12, CHold: 1e-12,
			LeakageCurrent: leak, SamplePeriod: 1e-3, Seed: 5,
		})
		return enc.EncodeFrame([]float64{1, 1, 1, 1})[0]
	}
	ideal := mk(0)
	leaky := mk(1e-9) // 1 nA on 1 pF for ms periods: visible droop
	if leaky >= ideal {
		t.Fatalf("leakage should reduce the held value: %g vs %g", leaky, ideal)
	}
}

func TestEncodeStreamShape(t *testing.T) {
	enc := idealEncoder(8, 32, 2, 6)
	y := enc.Encode(make([]float64, 100)) // 3 full frames, 4 dropped
	if len(y) != 3*8 {
		t.Fatalf("stream length %d, want 24", len(y))
	}
}

func TestEncoderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("nil phi", func() { NewEncoder(EncoderConfig{CSample: 1, CHold: 1}) })
	mustPanic("zero caps", func() {
		NewEncoder(EncoderConfig{Phi: GenerateSRBM(2, 4, 1, 1)})
	})
	mustPanic("frame length", func() {
		idealEncoder(4, 16, 2, 1).EncodeFrame(make([]float64, 5))
	})
}

func TestOMPRecoversSparseVector(t *testing.T) {
	// Random 40×100 dictionary, 4-sparse ground truth.
	rng := xrand.New(11)
	const m, k = 40, 100
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
		rng.FillNormal(cols[j], 0, 1)
	}
	truth := make([]float64, k)
	for _, j := range []int{3, 20, 55, 90} {
		truth[j] = rng.Normal(0, 1) + 2
	}
	y := make([]float64, m)
	for j, c := range truth {
		if c == 0 {
			continue
		}
		for i := range y {
			y[i] += c * cols[j][i]
		}
	}
	got := OMP(cols, y, 10, 1e-10)
	for j := range truth {
		if math.Abs(got[j]-truth[j]) > 1e-6 {
			t.Fatalf("coefficient %d = %g, want %g", j, got[j], truth[j])
		}
	}
}

func TestOMPEdgeCases(t *testing.T) {
	if got := OMP(nil, []float64{1}, 5, 0); len(got) != 0 {
		t.Fatal("empty dictionary")
	}
	cols := [][]float64{{1, 0}, {0, 1}}
	if got := OMP(cols, []float64{0, 0}, 5, 0); got[0] != 0 || got[1] != 0 {
		t.Fatal("zero measurement should give zero solution")
	}
	if got := OMP(cols, []float64{1, 1}, 0, 0); got[0] != 0 {
		t.Fatal("zero atom budget should give zero solution")
	}
}

func TestOMPToleranceStopsEarly(t *testing.T) {
	cols := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	y := []float64{1, 0.001, 0}
	got := OMP(cols, y, 3, 1e-2) // 1e-2 relative energy: stop after atom 1
	nonzero := 0
	for _, v := range got {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("expected early stop with 1 atom, got %d", nonzero)
	}
}

func TestCholeskyKnownSystem(t *testing.T) {
	// [[4,2],[2,3]] x = [8, 7] → x = [1.0, 5/3... ] solve precisely:
	// 4a+2b=8, 2a+3b=7 → a=1.25, b=1.5
	g := []float64{4, 2, 2, 3}
	l := append([]float64(nil), g...)
	if !cholesky(l, 2) {
		t.Fatal("PD matrix rejected")
	}
	x := []float64{8, 7}
	choleskySolve(l, x, 2)
	if math.Abs(x[0]-1.25) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Fatalf("solution %v", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	g := []float64{1, 2, 2, 1} // indefinite
	if cholesky(g, 2) {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestCholeskyProperty(t *testing.T) {
	// A = BᵀB + εI is always PD; Cholesky must solve it accurately.
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		const s = 6
		bmat := make([]float64, s*s)
		for i := range bmat {
			bmat[i] = rng.Normal(0, 1)
		}
		g := make([]float64, s*s)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				var sum float64
				for k := 0; k < s; k++ {
					sum += bmat[k*s+i] * bmat[k*s+j]
				}
				g[i*s+j] = sum
				if i == j {
					g[i*s+j] += 0.1
				}
			}
		}
		rhs := make([]float64, s)
		rng.FillNormal(rhs, 0, 1)
		l := append([]float64(nil), g...)
		if !cholesky(l, s) {
			return false
		}
		x := append([]float64(nil), rhs...)
		choleskySolve(l, x, s)
		// Check G·x = rhs.
		for i := 0; i < s; i++ {
			var sum float64
			for j := 0; j < s; j++ {
				sum += g[i*s+j] * x[j]
			}
			if math.Abs(sum-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructorRecoversDCTSparseFrame(t *testing.T) {
	// A frame that is exactly 5-sparse in the DCT basis must be recovered
	// nearly perfectly from M=96 of N=192 measurements by an ideal encoder.
	const n, m = 192, 96
	enc := idealEncoder(m, n, 2, 12)
	d := dsp.NewDCT(n)
	coeffs := make([]float64, n)
	coeffs[2] = 1.0
	coeffs[7] = -0.6
	coeffs[15] = 0.4
	coeffs[31] = 0.25
	coeffs[50] = -0.2
	x := d.Inverse(coeffs)
	y := enc.EncodeFrame(x)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), n, ReconOptions{MaxAtoms: 20, Tol: 1e-12})
	xh := r.ReconstructFrame(y)
	snr := dsp.SNRVersusReference(x, xh)
	if snr < 50 {
		t.Fatalf("sparse frame recovery SNR = %g dB, want > 50", snr)
	}
}

func TestReconstructorDegradesGracefullyWithNoise(t *testing.T) {
	const n, m = 192, 96
	mk := func(temp float64) float64 {
		enc := NewEncoder(EncoderConfig{
			Phi:         GenerateSRBM(m, n, 2, 13),
			CSample:     5e-15,
			CHold:       80e-15,
			Temperature: temp,
			Seed:        13,
		})
		d := dsp.NewDCT(n)
		coeffs := make([]float64, n)
		coeffs[3] = 1e-3 // millivolt scale so kT/C on fF caps matters
		coeffs[11] = -0.5e-3
		x := d.Inverse(coeffs)
		y := enc.EncodeFrame(x)
		r := NewMethodReconstructor(enc.EffectiveMatrix(true), n, ReconOptions{MaxAtoms: 16, Tol: 1e-10})
		return dsp.SNRVersusReference(x, r.ReconstructFrame(y))
	}
	clean := mk(0)
	noisy := mk(300)
	if clean <= noisy {
		t.Fatalf("noise should reduce reconstruction SNR: clean %g vs noisy %g", clean, noisy)
	}
}

func TestReconstructStreamShape(t *testing.T) {
	const n, m = 64, 32
	enc := idealEncoder(m, n, 2, 14)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), n, ReconOptions{MaxAtoms: 8, Tol: 1e-8})
	y := enc.Encode(make([]float64, 3*n))
	xh := r.Reconstruct(y)
	if len(xh) != 3*n {
		t.Fatalf("reconstructed length %d, want %d", len(xh), 3*n)
	}
	if r.FrameLen() != n || r.Measurements() != m {
		t.Fatal("reconstructor accessors wrong")
	}
}

func TestReconstructorPanicsOnBadLength(t *testing.T) {
	enc := idealEncoder(8, 32, 2, 15)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 32, ReconOptions{MaxAtoms: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("bad measurement length should panic")
		}
	}()
	r.ReconstructFrame(make([]float64, 7))
}

func TestSRBMValidityProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw, sRaw uint8) bool {
		m := int(mRaw%20) + 2
		n := int(nRaw%40) + 1
		s := int(sRaw)%m + 1
		p := GenerateSRBM(m, n, s, seed)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEq1WeightsSumProperty(t *testing.T) {
	// The Eq (1) weights of a row always sum to 1 - b^count (< 1): charge
	// conservation of the sharing network.
	f := func(c1Raw, c2Raw uint16, countRaw uint8) bool {
		c1 := float64(c1Raw) + 1
		c2 := float64(c2Raw) + 1
		count := int(countRaw)%10 + 1
		w := Eq1Weights(c1, c2, count)
		var sum float64
		for _, x := range w {
			sum += x
		}
		b := c2 / (c1 + c2)
		want := 1 - math.Pow(b, float64(count))
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
