package cs

import "math"

// OMP solves y ≈ D·θ for a sparse θ via orthogonal matching pursuit.
// D is an M×K dictionary given as column vectors cols[k] (each length M);
// maxAtoms bounds the support size and tol stops early once the residual
// energy falls below tol·||y||². It returns the dense coefficient vector
// (length K). The implementation re-solves the least-squares subproblem
// with a Cholesky factorisation of the Gram matrix each iteration, which
// is robust and fast at the problem sizes of this framework (M ≤ ~200).
func OMP(cols [][]float64, y []float64, maxAtoms int, tol float64) []float64 {
	k := len(cols)
	theta := make([]float64, k)
	if k == 0 || len(y) == 0 || maxAtoms <= 0 {
		return theta
	}
	m := len(y)
	// Precompute column norms to normalise correlations.
	norms := make([]float64, k)
	for j, c := range cols {
		var s float64
		for _, v := range c {
			s += v * v
		}
		norms[j] = math.Sqrt(s)
	}
	var yEnergy float64
	for _, v := range y {
		yEnergy += v * v
	}
	if yEnergy == 0 {
		return theta
	}
	resid := make([]float64, m)
	copy(resid, y)
	support := make([]int, 0, maxAtoms)
	inSupport := make([]bool, k)
	coef := []float64(nil)
	prevEnergy := yEnergy
	for len(support) < maxAtoms && len(support) < m {
		// Select the column most correlated with the residual.
		best, bestVal := -1, 0.0
		for j := 0; j < k; j++ {
			if inSupport[j] || norms[j] == 0 {
				continue
			}
			var dot float64
			cj := cols[j]
			for i := 0; i < m; i++ {
				dot += cj[i] * resid[i]
			}
			if a := math.Abs(dot) / norms[j]; a > bestVal {
				best, bestVal = j, a
			}
		}
		if best < 0 || bestVal < 1e-15 {
			break
		}
		support = append(support, best)
		inSupport[best] = true
		// Least squares on the support via normal equations + Cholesky.
		var ok bool
		coef, ok = lsSolve(cols, support, y)
		if !ok {
			// Degenerate Gram matrix: drop the atom and stop.
			support = support[:len(support)-1]
			inSupport[best] = false
			break
		}
		// New residual.
		copy(resid, y)
		for si, j := range support {
			cj := cols[j]
			c := coef[si]
			for i := 0; i < m; i++ {
				resid[i] -= c * cj[i]
			}
		}
		var rEnergy float64
		for _, v := range resid {
			rEnergy += v * v
		}
		if rEnergy <= tol*yEnergy {
			break
		}
		// Diminishing returns: once an atom removes less than 0.5 % of the
		// remaining residual energy, the rest is noise — stop early. This
		// is what keeps noisy-frame reconstruction cheap in large sweeps.
		if prevEnergy > 0 && (prevEnergy-rEnergy) < 0.005*prevEnergy {
			break
		}
		prevEnergy = rEnergy
	}
	for si, j := range support {
		theta[j] = coef[si]
	}
	return theta
}

// lsSolve returns argmin ||y - D_S c|| for the columns indexed by support,
// using Cholesky on the Gram matrix. ok is false if the Gram matrix is not
// positive definite.
func lsSolve(cols [][]float64, support []int, y []float64) (c []float64, ok bool) {
	s := len(support)
	g := make([]float64, s*s)
	b := make([]float64, s)
	for a := 0; a < s; a++ {
		ca := cols[support[a]]
		for bb := a; bb < s; bb++ {
			cb := cols[support[bb]]
			var dot float64
			for i := range ca {
				dot += ca[i] * cb[i]
			}
			g[a*s+bb] = dot
			g[bb*s+a] = dot
		}
		var dot float64
		for i := range ca {
			dot += ca[i] * y[i]
		}
		b[a] = dot
	}
	if !cholesky(g, s) {
		return nil, false
	}
	choleskySolve(g, b, s)
	return b, true
}

// cholesky factors the s×s symmetric matrix g (row-major) as L·Lᵀ in
// place, overwriting the lower triangle of g with L, or returns false if
// g is not positive definite. Each entry of g is read once, just before L
// overwrites it, and the upper triangle is never touched.
func cholesky(g []float64, s int) bool {
	for i := 0; i < s; i++ {
		for j := 0; j <= i; j++ {
			sum := g[i*s+j]
			for k := 0; k < j; k++ {
				sum -= g[i*s+k] * g[j*s+k]
			}
			if i == j {
				if sum <= 1e-300 {
					return false
				}
				g[i*s+i] = math.Sqrt(sum)
			} else {
				g[i*s+j] = sum / g[j*s+j]
			}
		}
	}
	return true
}

// choleskySolve solves L·Lᵀ·x = b in place: x holds b on entry and the
// solution on return. Only the lower triangle of l is read.
func choleskySolve(l, x []float64, s int) {
	// Forward substitution L·z = b; z[i] overwrites b[i], which is not
	// read again.
	for i := 0; i < s; i++ {
		sum := x[i]
		for k := 0; k < i; k++ {
			sum -= l[i*s+k] * x[k]
		}
		x[i] = sum / l[i*s+i]
	}
	// Back substitution Lᵀ·x = z, from the last row up.
	for i := s - 1; i >= 0; i-- {
		sum := x[i]
		for k := i + 1; k < s; k++ {
			sum -= l[k*s+i] * x[k]
		}
		x[i] = sum / l[i*s+i]
	}
}
