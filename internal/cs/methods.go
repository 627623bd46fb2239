package cs

import (
	"fmt"
	"math"

	"efficsense/internal/dsp"
)

// Method selects the reconstruction algorithm. The paper notes that the
// many degrees of freedom of compressive sensing (matrix, architecture,
// *reconstruction*) are exactly what a pathfinding framework must let the
// designer sweep; three standard recoveries are provided.
type Method int

const (
	// MethodOMP is orthogonal matching pursuit in the DCT dictionary (the
	// default, via the Batch-OMP solver).
	MethodOMP Method = iota
	// MethodIHT is iterative hard thresholding in the DCT dictionary —
	// cheaper per iteration, fixed sparsity budget.
	MethodIHT
	// MethodRidge is Tikhonov-regularised least squares directly in the
	// sample domain (no sparsity model) — the classical minimum-energy
	// recovery, a useful non-sparse baseline.
	MethodRidge
	// MethodBOMP is block orthogonal matching pursuit: support grows in
	// contiguous blocks of DCT atoms instead of singletons, exploiting
	// the block-sparse structure of physiological signals whose spectral
	// energy clusters (the BSBL insight of Liu et al., arXiv:1309.7843,
	// applied to a greedy solver). Right for telemonitoring waveforms —
	// ECG in particular — that are not strictly sparse atom by atom.
	MethodBOMP
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodOMP:
		return "omp"
	case MethodIHT:
		return "iht"
	case MethodRidge:
		return "ridge"
	case MethodBOMP:
		return "bomp"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ReconOptions parameterises a reconstructor.
type ReconOptions struct {
	// Method selects the algorithm (default OMP).
	Method Method
	// MaxAtoms bounds the sparse support (OMP/IHT/BOMP). 0 → M/3.
	MaxAtoms int
	// Tol is the relative residual-energy stop (OMP/BOMP). <= 0 → 1e-6.
	Tol float64
	// IHTIters is the iteration count for IHT (0 → 40).
	IHTIters int
	// RidgeLambda is the Tikhonov weight relative to the mean diagonal of
	// A·Aᵀ (0 → 0.05).
	RidgeLambda float64
	// BlockLen is the contiguous-atom block size for BOMP (0 → 4).
	BlockLen int
}

// MethodReconstructor recovers frames of N_Φ input samples from M
// measurements y ≈ A·x, where A is the *nominal* effective matrix of the
// encoder (the designer knows the intended capacitor ratio, not the
// silicon's mismatch realisation). The sparse methods solve y ≈ A·Ψ·θ in
// the orthonormal DCT dictionary Ψ, in which physiological frames are
// approximately sparse; ridge solves directly in the sample domain. It
// is read-only after construction: many goroutines may share one, each
// with its own ReconScratch.
type MethodReconstructor struct {
	opts ReconOptions
	n, m int
	dct  *dsp.DCT
	// solver keeps the flat D = A·Ψ dictionary and its Gram matrix (OMP).
	solver *BatchOMP
	// dict holds the columns of D (IHT and BOMP).
	dict [][]float64
	// IHT step size 1/L with L ≈ the dictionary's largest squared
	// singular value.
	ihtStep float64
	// Ridge: a (M×nPhi) and the Cholesky factor of A·Aᵀ + λI.
	a     [][]float64
	ridge []float64
}

// NewMethodReconstructor precomputes whatever the chosen method needs for
// the given effective measurement matrix, and keeps nothing else.
func NewMethodReconstructor(a [][]float64, nPhi int, opts ReconOptions) *MethodReconstructor {
	m := len(a)
	if m == 0 || len(a[0]) != nPhi {
		panic("cs: effective matrix shape mismatch")
	}
	if opts.MaxAtoms <= 0 {
		opts.MaxAtoms = m / 3
		if opts.MaxAtoms < 4 {
			opts.MaxAtoms = 4
		}
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.IHTIters <= 0 {
		opts.IHTIters = 40
	}
	if opts.RidgeLambda <= 0 {
		opts.RidgeLambda = 0.05
	}
	if opts.BlockLen <= 0 {
		opts.BlockLen = 4
	}
	r := &MethodReconstructor{opts: opts, n: nPhi, m: m, dct: dsp.NewDCT(nPhi)}
	switch opts.Method {
	case MethodOMP:
		r.solver = NewBatchOMP(dictionary(a, r.dct))
	case MethodIHT:
		r.dict = dictionary(a, r.dct)
		r.ihtStep = 1 / spectralNormSq(NewBatchOMP(r.dict))
	case MethodBOMP:
		// BOMP solves its own block least squares on the support; only
		// the singleton-greedy OMP needs the Batch-OMP Gram machinery.
		r.dict = dictionary(a, r.dct)
	case MethodRidge:
		// G = A·Aᵀ + λ·mean(diag)·I, factored once, in place.
		g := make([]float64, m*m)
		var trace float64
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				dot := dsp.Dot(a[i], a[j])
				g[i*m+j] = dot
				g[j*m+i] = dot
			}
			trace += g[i*m+i]
		}
		lambda := opts.RidgeLambda * trace / float64(m)
		if lambda <= 0 {
			lambda = 1e-12
		}
		for i := 0; i < m; i++ {
			g[i*m+i] += lambda
		}
		if !cholesky(g, m) {
			panic("cs: ridge system not positive definite")
		}
		r.a, r.ridge = a, g
	default:
		panic(fmt.Sprintf("cs: unknown reconstruction method %d", opts.Method))
	}
	return r
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

// spectralNormSq estimates the largest eigenvalue of DᵀD via power
// iteration on the precomputed Gram matrix.
func spectralNormSq(b *BatchOMP) float64 {
	k := b.k
	if k == 0 {
		return 1
	}
	v := make([]float64, k)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(k))
	}
	w := make([]float64, k)
	var lambda float64
	for iter := 0; iter < 30; iter++ {
		for i := 0; i < k; i++ {
			w[i] = dsp.Dot(b.gram[i*k:(i+1)*k], v)
		}
		norm := math.Sqrt(dsp.Energy(w))
		if norm == 0 {
			return 1
		}
		lambda = norm
		for i := range v {
			v[i] = w[i] / norm
		}
	}
	if lambda <= 0 {
		return 1
	}
	return lambda
}

// FrameLen returns N_Φ.
func (r *MethodReconstructor) FrameLen() int { return r.n }

// Measurements returns M.
func (r *MethodReconstructor) Measurements() int { return r.m }

// ReconScratch is the per-goroutine working set of ReconstructInto: the
// coefficient, residual and gradient vectors, the Batch-OMP solver
// scratch, and BOMP's support, block flags and normal equations. The zero
// value is ready to use; it grows to the largest geometry seen and is
// then allocation-free. Not safe for concurrent use.
type ReconScratch struct {
	theta, resid, grad []float64
	normal, rhs        []float64
	blocks             []bool
	support            []int
	omp                Scratch
}

// ReconstructInto recovers a concatenated measurement stream (frames·M
// values; a trailing partial frame is dropped) into caller-owned
// storage. dst is grown (reallocating only when capacity is exceeded) to
// frames·N_Φ and fully overwritten; the returned slice aliases it.
func (r *MethodReconstructor) ReconstructInto(dst, y []float64, sc *ReconScratch) []float64 {
	frames := len(y) / r.m
	dst = growTo(dst, frames*r.n)
	sc.theta = growTo(sc.theta, r.n)
	sc.resid = growTo(sc.resid, r.m)
	sc.grad = growTo(sc.grad, r.n)
	for f := 0; f < frames; f++ {
		out, yf := dst[f*r.n:(f+1)*r.n], y[f*r.m:(f+1)*r.m]
		switch r.opts.Method {
		case MethodOMP:
			r.dct.InverseInto(out, r.solver.SolveInto(sc.theta, yf, r.opts.MaxAtoms, r.opts.Tol, &sc.omp))
		case MethodIHT:
			r.dct.InverseInto(out, r.iht(yf, sc))
		case MethodBOMP:
			r.dct.InverseInto(out, r.bomp(yf, sc))
		default:
			r.ridgeSolve(out, yf, sc.resid)
		}
	}
	return dst
}

// Reconstruct is ReconstructInto against fresh storage.
func (r *MethodReconstructor) Reconstruct(y []float64) []float64 {
	return r.ReconstructInto(nil, y, new(ReconScratch))
}

// ReconstructFrame recovers one frame from its M measurements.
func (r *MethodReconstructor) ReconstructFrame(y []float64) []float64 {
	if len(y) != r.m {
		panic("cs: measurement vector length mismatch")
	}
	return r.Reconstruct(y)
}

// bomp runs block orthogonal matching pursuit into sc.theta: the DCT
// dictionary is cut into contiguous blocks of BlockLen atoms, each greedy
// step admits the block with the largest aggregate residual correlation,
// and the coefficients on the grown support are re-fit by least squares
// before the residual is updated — OMP's orthogonalisation at block
// granularity.
func (r *MethodReconstructor) bomp(y []float64, sc *ReconScratch) []float64 {
	blockLen := r.opts.BlockLen
	nBlocks := (r.n + blockLen - 1) / blockLen
	theta, resid := sc.theta, sc.resid
	clear(theta)
	energy0 := dsp.Energy(y)
	if energy0 == 0 {
		return theta
	}
	copy(resid, y)
	if cap(sc.blocks) < nBlocks {
		sc.blocks = make([]bool, nBlocks)
	}
	selected := sc.blocks[:nBlocks]
	clear(selected)
	support := sc.support[:0]
	for len(support) < r.opts.MaxAtoms {
		best, bestScore := -1, 0.0
		for b := 0; b < nBlocks; b++ {
			if selected[b] {
				continue
			}
			var s float64
			for k := b * blockLen; k < (b+1)*blockLen && k < r.n; k++ {
				d := dsp.Dot(r.dict[k], resid)
				s += d * d
			}
			if s > bestScore {
				best, bestScore = b, s
			}
		}
		if best < 0 || bestScore <= 0 {
			break
		}
		selected[best] = true
		for k := best * blockLen; k < (best+1)*blockLen && k < r.n; k++ {
			support = append(support, k)
		}
		// Least squares on the support: (DᵀD + εI)·c = Dᵀy, refactored each
		// step (supports stay small — a handful of blocks).
		p := len(support)
		sc.normal, sc.rhs = growTo(sc.normal, p*p), growTo(sc.rhs, p)
		g, c := sc.normal, sc.rhs
		for i := 0; i < p; i++ {
			di := r.dict[support[i]]
			for j := i; j < p; j++ {
				dot := dsp.Dot(di, r.dict[support[j]])
				g[i*p+j] = dot
				g[j*p+i] = dot
			}
			g[i*p+i] += 1e-12
			c[i] = dsp.Dot(di, y)
		}
		if !cholesky(g, p) {
			break
		}
		choleskySolve(g, c, p)
		copy(resid, y)
		for i, k := range support {
			ci := c[i]
			if ci == 0 {
				continue
			}
			col := r.dict[k]
			for t := range resid {
				resid[t] -= ci * col[t]
			}
		}
		clear(theta)
		for i, k := range support {
			theta[k] = c[i]
		}
		if dsp.Energy(resid) <= r.opts.Tol*energy0 {
			break
		}
	}
	sc.support = support
	return theta
}

// iht runs iterative hard thresholding into sc.theta:
// θ ← H_K(θ + µ·Dᵀ(y − D·θ)).
func (r *MethodReconstructor) iht(y []float64, sc *ReconScratch) []float64 {
	theta, resid, grad := sc.theta, sc.resid, sc.grad
	clear(theta)
	for iter := 0; iter < r.opts.IHTIters; iter++ {
		// resid = y - D·theta.
		copy(resid, y)
		for k, c := range theta {
			if c == 0 {
				continue
			}
			col := r.dict[k]
			for i := range resid {
				resid[i] -= c * col[i]
			}
		}
		// grad = Dᵀ·resid.
		for k := range grad {
			grad[k] = dsp.Dot(r.dict[k], resid)
		}
		for k := range theta {
			theta[k] += r.ihtStep * grad[k]
		}
		// grad is dead until the next iteration recomputes it.
		keepTopKAbs(theta, r.opts.MaxAtoms, grad)
	}
	return theta
}

// keepTopKAbs zeroes all but the k largest-magnitude entries of v, in
// place, overwriting mags (len(v)) as scratch.
func keepTopKAbs(v []float64, k int, mags []float64) {
	if k >= len(v) {
		return
	}
	// Selection by threshold: find the k-th largest magnitude with a
	// quickselect over the magnitudes.
	mags = mags[:len(v)]
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	thr := kthLargest(mags, k)
	kept := 0
	for i, x := range v {
		if math.Abs(x) >= thr && kept < k {
			kept++
			continue
		}
		v[i] = 0
	}
}

// kthLargest returns the k-th largest value of a (destructive, quickselect).
func kthLargest(a []float64, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	if k > len(a) {
		return math.Inf(-1)
	}
	lo, hi := 0, len(a)-1
	target := k - 1 // index in descending order
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] > p {
				i++
			}
			for a[j] < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			break
		}
	}
	return a[target]
}

// ridgeSolve writes x̂ = Aᵀ·(A·Aᵀ + λI)⁻¹·y into dst, solving for the
// M weights in w.
func (r *MethodReconstructor) ridgeSolve(dst, y, w []float64) {
	copy(w, y)
	choleskySolve(r.ridge, w, r.m)
	clear(dst)
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		row := r.a[i]
		for j := range dst {
			dst[j] += wi * row[j]
		}
	}
}
