package cs

import (
	"efficsense/internal/dsp"
)

// Reconstructor recovers frames of N_Φ input samples from M charge-sharing
// measurements. It solves y ≈ A·Ψ·θ with OMP, where A is the *nominal*
// effective matrix of the encoder (the designer knows the intended
// capacitor ratio, not the silicon's mismatch realisation) and Ψ the
// orthonormal DCT dictionary in which EEG frames are approximately sparse.
type Reconstructor struct {
	n, m int
	dct  *dsp.DCT
	// solver keeps the D = A·Ψ dictionary (flat) and its Gram matrix; the
	// per-column slices are needed only to build it and are not retained.
	solver   *BatchOMP
	maxAtoms int
	tol      float64
}

// NewReconstructor precomputes the D = A·Ψ dictionary for the encoder.
// maxAtoms = 0 picks the default budget M/3 (sub-Nyquist recovery needs
// the support well below M); tol <= 0 selects 1e-6 relative residual.
func NewReconstructor(enc *Encoder, maxAtoms int, tol float64) *Reconstructor {
	n, m := enc.FrameLen(), enc.Measurements()
	if maxAtoms <= 0 {
		maxAtoms = m / 3
		if maxAtoms < 4 {
			maxAtoms = 4
		}
	}
	if tol <= 0 {
		tol = 1e-6
	}
	return newReconstructorFromMatrix(enc.EffectiveMatrix(true), n, maxAtoms, tol)
}

// newReconstructorFromMatrix builds the D = A·Ψ dictionary for any
// effective measurement matrix A (M×nPhi).
func newReconstructorFromMatrix(a [][]float64, nPhi, maxAtoms int, tol float64) *Reconstructor {
	m := len(a)
	if m == 0 || len(a[0]) != nPhi {
		panic("cs: effective matrix shape mismatch")
	}
	if maxAtoms <= 0 {
		maxAtoms = m / 3
		if maxAtoms < 4 {
			maxAtoms = 4
		}
	}
	if tol <= 0 {
		tol = 1e-6
	}
	d := dsp.NewDCT(nPhi)
	dict := dictionary(a, d)
	return &Reconstructor{
		n: nPhi, m: m, dct: d,
		solver: NewBatchOMP(dict), maxAtoms: maxAtoms, tol: tol,
	}
}

// dictionary returns the columns of D = A·Ψ for the orthonormal DCT Ψ:
// dict[k][i] = Σ_t A[i][t]·Ψ_k[t]. Effective CS matrices are sparse (a
// row holds only the samples routed to it), so each row's non-zero
// entries are gathered once and the sums run over them alone, in
// ascending t. A skipped zero entry would add ±0 to a running sum that
// starts at +0 and can never become -0, which leaves the sum unchanged
// bit for bit, so every entry equals the dense dsp.Dot(A[i], Ψ_k).
func dictionary(a [][]float64, d *dsp.DCT) [][]float64 {
	nz := make([][]int, len(a))
	for i, row := range a {
		for t, v := range row {
			if v != 0 {
				nz[i] = append(nz[i], t)
			}
		}
	}
	dict := make([][]float64, len(a[0]))
	for k := range dict {
		psi := d.Column(k)
		col := make([]float64, len(a))
		for i, idx := range nz {
			row := a[i]
			var s float64
			for _, t := range idx {
				s += row[t] * psi[t]
			}
			col[i] = s
		}
		dict[k] = col
	}
	return dict
}

// FrameLen returns N_Φ.
func (r *Reconstructor) FrameLen() int { return r.n }

// Measurements returns M.
func (r *Reconstructor) Measurements() int { return r.m }

// ReconstructFrame recovers one frame from its M measurements.
func (r *Reconstructor) ReconstructFrame(y []float64) []float64 {
	if len(y) != r.m {
		panic("cs: measurement vector length mismatch")
	}
	theta := r.solver.Solve(y, r.maxAtoms, r.tol)
	return r.dct.Inverse(theta)
}

// Reconstruct recovers a concatenated measurement stream (frames·M values)
// into the corresponding frames·N_Φ sample stream.
func (r *Reconstructor) Reconstruct(y []float64) []float64 {
	frames := len(y) / r.m
	out := make([]float64, 0, frames*r.n)
	for f := 0; f < frames; f++ {
		out = append(out, r.ReconstructFrame(y[f*r.m:(f+1)*r.m])...)
	}
	return out
}

// ReconScratch holds the per-goroutine working set of the allocation-free
// reconstruction path: the coefficient vector plus the solver scratch. The
// zero value is ready to use; it grows to the largest geometry seen.
type ReconScratch struct {
	theta []float64
	omp   Scratch
}

// ReconstructInto is Reconstruct against caller-owned storage. dst is
// grown (reallocating only when capacity is exceeded) to frames·N_Φ and
// fully overwritten; the returned slice aliases it. Every frame is solved
// through the same Batch-OMP arithmetic as ReconstructFrame, so results
// are bit-identical to Reconstruct. A single Reconstructor may serve many
// goroutines concurrently as long as each brings its own ReconScratch.
func (r *Reconstructor) ReconstructInto(dst, y []float64, sc *ReconScratch) []float64 {
	frames := len(y) / r.m
	dst = growTo(dst, frames*r.n)
	sc.theta = growTo(sc.theta, r.n)
	theta := sc.theta
	for f := 0; f < frames; f++ {
		r.solver.SolveInto(theta, y[f*r.m:(f+1)*r.m], r.maxAtoms, r.tol, &sc.omp)
		r.dct.InverseInto(dst[f*r.n:(f+1)*r.n], theta)
	}
	return dst
}
