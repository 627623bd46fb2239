package cs

import (
	"math"
	"testing"

	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// sparseFrameProblem builds an ideal passive encoder, a DCT-sparse frame
// and its measurements.
func sparseFrameProblem(n, m int, seed int64) (enc *Encoder, x, y []float64) {
	enc = idealEncoder(m, n, 2, seed)
	d := dsp.NewDCT(n)
	coeffs := make([]float64, n)
	coeffs[2] = 1.0
	coeffs[9] = -0.5
	coeffs[17] = 0.3
	x = d.Inverse(coeffs)
	y = enc.EncodeFrame(x)
	return enc, x, y
}

func TestMethodStrings(t *testing.T) {
	if MethodOMP.String() != "omp" || MethodIHT.String() != "iht" || MethodRidge.String() != "ridge" {
		t.Fatal("method names")
	}
	if Method(7).String() == "" {
		t.Fatal("unknown method should render")
	}
}

func TestMethodOMPRecovers(t *testing.T) {
	enc, x, y := sparseFrameProblem(128, 64, 21)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128, ReconOptions{Method: MethodOMP, MaxAtoms: 12, Tol: 1e-12})
	snr := dsp.SNRVersusReference(x, r.ReconstructFrame(y))
	if snr < 50 {
		t.Fatalf("OMP method SNR = %g dB", snr)
	}
}

func TestMethodIHTRecovers(t *testing.T) {
	enc, x, y := sparseFrameProblem(128, 64, 22)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128, ReconOptions{Method: MethodIHT, MaxAtoms: 8, IHTIters: 150})
	snr := dsp.SNRVersusReference(x, r.ReconstructFrame(y))
	if snr < 25 {
		t.Fatalf("IHT method SNR = %g dB", snr)
	}
}

func TestMethodRidgeRecoversApproximately(t *testing.T) {
	// Ridge has no sparsity prior so recovery is rough, but must be
	// positively correlated and stable.
	enc, x, y := sparseFrameProblem(128, 96, 23)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128, ReconOptions{Method: MethodRidge, RidgeLambda: 0.01})
	xh := r.ReconstructFrame(y)
	if rho := dsp.CrossCorrelation(x, xh); rho < 0.5 {
		t.Fatalf("ridge correlation = %g", rho)
	}
}

func TestMethodReconstructorStream(t *testing.T) {
	enc, _, _ := sparseFrameProblem(64, 32, 24)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 64, ReconOptions{Method: MethodRidge})
	y := enc.Encode(make([]float64, 3*64))
	out := r.Reconstruct(y)
	if len(out) != 3*64 {
		t.Fatalf("stream length %d", len(out))
	}
	if r.FrameLen() != 64 || r.Measurements() != 32 {
		t.Fatal("accessors")
	}
}

func TestMethodReconstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	enc, _, _ := sparseFrameProblem(64, 32, 25)
	a := enc.EffectiveMatrix(true)
	mustPanic("shape", func() { NewMethodReconstructor(a, 65, ReconOptions{}) })
	mustPanic("method", func() { NewMethodReconstructor(a, 64, ReconOptions{Method: Method(9)}) })
	r := NewMethodReconstructor(a, 64, ReconOptions{})
	mustPanic("frame length", func() { r.ReconstructFrame(make([]float64, 5)) })
}

func TestKthLargest(t *testing.T) {
	cases := []struct {
		v    []float64
		k    int
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{5, 1, 4, 2, 3}, 3, 3},
		{[]float64{5, 1, 4, 2, 3}, 5, 1},
		{[]float64{7, 7, 7}, 2, 7},
	}
	for _, c := range cases {
		cp := append([]float64(nil), c.v...)
		if got := kthLargest(cp, c.k); got != c.want {
			t.Errorf("kthLargest(%v, %d) = %g, want %g", c.v, c.k, got, c.want)
		}
	}
	if got := kthLargest([]float64{1, 2}, 0); !math.IsInf(got, 1) {
		t.Errorf("k=0 should give +Inf, got %g", got)
	}
	if got := kthLargest([]float64{1, 2}, 3); !math.IsInf(got, -1) {
		t.Errorf("k>len should give -Inf, got %g", got)
	}
}

func TestKeepTopKAbs(t *testing.T) {
	v := []float64{0.1, -5, 3, -0.2, 4}
	keepTopKAbs(v, 2, make([]float64, len(v)))
	nz := 0
	for _, x := range v {
		if x != 0 {
			nz++
		}
	}
	if nz != 2 || v[1] != -5 || v[4] != 4 {
		t.Fatalf("keepTopKAbs result %v", v)
	}
	w := []float64{1, 2}
	keepTopKAbs(w, 5, make([]float64, len(w))) // no-op
	if w[0] != 1 || w[1] != 2 {
		t.Fatal("oversized k should be a no-op")
	}
}

func TestActiveEncoderExactSum(t *testing.T) {
	phi := GenerateSRBM(8, 32, 2, 26)
	enc := NewActiveEncoder(ActiveEncoderConfig{Phi: phi, Seed: 26})
	rng := xrand.New(26)
	x := make([]float64, 32)
	rng.FillNormal(x, 0, 1)
	y := enc.EncodeFrame(x)
	// Ideal active integration is the exact binary matrix product.
	want := DigitalEncode(phi, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("row %d: active %g vs exact %g", i, y[i], want[i])
		}
	}
}

func TestActiveEncoderMatchesEffectiveMatrix(t *testing.T) {
	phi := GenerateSRBM(6, 24, 2, 27)
	enc := NewActiveEncoder(ActiveEncoderConfig{Phi: phi, GainError: 0.02, Seed: 27})
	rng := xrand.New(27)
	x := make([]float64, 24)
	rng.FillNormal(x, 0, 1)
	y := enc.EncodeFrame(x)
	a := enc.EffectiveMatrix()
	for i := range y {
		want := dsp.Dot(a[i], x)
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: encoder %g vs matrix %g", i, y[i], want)
		}
	}
}

func TestActiveEncoderNoiseAccumulates(t *testing.T) {
	phi := GenerateSRBM(4, 64, 2, 28)
	noisy := NewActiveEncoder(ActiveEncoderConfig{Phi: phi, OTANoise: 1e-3, Seed: 28})
	y := noisy.EncodeFrame(make([]float64, 64))
	if dsp.RMS(y) == 0 {
		t.Fatal("OTA noise missing")
	}
	// More accumulations per row → more noise: rows with higher counts
	// should show larger variance on average over repeated frames.
	counts := phi.RowCounts()
	var accum [4]float64
	const trials = 400
	for t := 0; t < trials; t++ {
		y := noisy.EncodeFrame(make([]float64, 64))
		for i, v := range y {
			accum[i] += v * v
		}
	}
	// Compare the busiest against the idlest row.
	hi, lo := 0, 0
	for i, c := range counts {
		if c > counts[hi] {
			hi = i
		}
		if c < counts[lo] {
			lo = i
		}
	}
	if counts[hi] > counts[lo] && accum[hi] <= accum[lo] {
		t.Fatalf("noise should accumulate with row count: var[hi]=%g var[lo]=%g (counts %v)",
			accum[hi], accum[lo], counts)
	}
}

func TestActiveEncoderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing matrix should panic")
		}
	}()
	NewActiveEncoder(ActiveEncoderConfig{})
}

func TestDigitalEncodeShape(t *testing.T) {
	phi := GenerateSRBM(8, 32, 2, 29)
	y := DigitalEncode(phi, make([]float64, 100)) // 3 frames + remainder
	if len(y) != 24 {
		t.Fatalf("digital encode length %d", len(y))
	}
}

// reconProblem builds the nominal effective matrix of an n-sample,
// m-measurement passive encoder and a noisy multitone stream of the given
// frame count, with frame silent left at zero (the zero-energy exit; -1
// for none).
func reconProblem(n, m, frames, silent int, seed int64) (a [][]float64, y []float64) {
	phi := GenerateSRBM(m, n, 2, seed)
	a = NominalEffectiveMatrix(phi, 5e-15, 80e-15)
	rng := xrand.New(seed)
	x := make([]float64, frames*n)
	for i := range x {
		if i/n == silent {
			continue
		}
		x[i] = math.Sin(0.05*float64(i)) + 0.4*math.Sin(0.31*float64(i)+1) + rng.Normal(0, 0.05)
	}
	return a, DigitalEncode(phi, x)
}

func TestReconstructIntoMatchesReconstruct(t *testing.T) {
	var sc ReconScratch
	for _, g := range []struct{ n, m int }{{192, 96}, {96, 48}, {192, 96}} {
		a, y := reconProblem(g.n, g.m, 3, 1, int64(g.n))
		for _, method := range []Method{MethodOMP, MethodIHT, MethodRidge, MethodBOMP} {
			r := NewMethodReconstructor(a, g.n, ReconOptions{Method: method, MaxAtoms: g.m / 4, Tol: 1e-4})
			want := r.Reconstruct(y)
			if len(want) != 3*g.n {
				t.Fatalf("%s: Reconstruct length %d, want %d", method, len(want), 3*g.n)
			}
			stale := make([]float64, len(want)+5)
			for i := range stale {
				stale[i] = math.NaN()
			}
			got := r.ReconstructInto(stale[:1], y, &sc)
			if &got[0] != &stale[0] {
				t.Fatalf("%s: ReconstructInto reallocated a dst with room", method)
			}
			for f := 0; f < 3; f++ {
				frame := r.ReconstructFrame(y[f*g.m : (f+1)*g.m])
				for i, v := range frame {
					if k := f*g.n + i; got[k] != want[k] || v != want[k] {
						t.Fatalf("%s n=%d sample %d: Into %v, Reconstruct %v, ReconstructFrame %v", method, g.n, k, got[k], want[k], v)
					}
				}
			}
		}
	}
}

// BenchmarkReconstructInto times the allocation-free recovery of the
// default passive-CS geometry (M=150, N_Φ=384, the chains' M/4 atom
// budget and 1e-4 tolerance), per frame, for OMP (the EEG recovery) and
// block-OMP (the ECG one).
func BenchmarkReconstructInto(b *testing.B) {
	const n, m, frames = 384, 150, 4
	a, y := reconProblem(n, m, frames, -1, 7)
	for _, method := range []Method{MethodOMP, MethodBOMP} {
		b.Run(method.String(), func(b *testing.B) {
			r := NewMethodReconstructor(a, n, ReconOptions{Method: method, MaxAtoms: m / 4, Tol: 1e-4})
			var sc ReconScratch
			dst := r.ReconstructInto(nil, y, &sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = r.ReconstructInto(dst, y, &sc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
		})
	}
}
