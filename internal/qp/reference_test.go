package qp

import (
	"fmt"
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// The reference solver below is the from-scratch active-set loop that the
// workspace solver replaced: every iteration re-solves H⁻¹·a_w for every
// working constraint, builds and LU-factors a fresh Schur complement, and
// every working-set add re-factors the whole working set by QR. It
// allocates freely and shares no state across iterations, which makes it
// the oracle for the bit-identity tests: the workspace solver caches and
// reuses that work but must reproduce every floating-point operation.

// refStats counts the events the reference solver passed through, so the
// bit-identity tests can require that their problem mix actually exercised
// every path whose work the workspace solver caches or reuses.
type refCounters struct {
	warmSeeds      int // working-set entries admitted from the warm-start list
	midDrops       int // multiplier drops of a slot other than the last
	truncations    int // drop-and-retry after a singular KKT system
	dependentAdds  int // adds rejected as linearly dependent
	degenerateAdds int // adds accepted because the working-set QR was rank deficient
	cappedSolves   int // solves that hit the iteration limit
}

var refStats refCounters

// refLSISolve mirrors LSI.Solve on s's cached Hessian, keeping its own
// warm-start set in *warm.
func refLSISolve(s *LSI, warm *[]int, d []float64, a *mat.Dense, b []float64, x0 []float64) (*Result, error) {
	f := s.ct.MulVec(d)
	for i := range f {
		f[i] *= -2
	}
	start := mat.VecClone(x0)
	if a != nil && maxViolation(a, b, start) > 1e-9 {
		feasible, err := FindFeasible(a, b, start, s.opts)
		if err != nil {
			return nil, fmt.Errorf("phase-1 for constrained least squares: %w", err)
		}
		copy(start, feasible)
	}
	opts := s.opts
	opts.WarmStart = *warm
	res, err := refSolveActiveSet(s.h, s.hchol, f, a, b, start, opts)
	if err != nil {
		return res, err
	}
	*warm = append((*warm)[:0], res.Active...)
	resid := s.c.MulVec(res.X)
	var obj float64
	for i, v := range resid {
		r := v - d[i]
		obj += r * r
	}
	res.Objective = obj
	return res, nil
}

func refSolveActiveSet(h *mat.Dense, hchol *mat.SPDFactor, f []float64, a *mat.Dense, b []float64, x0 []float64, opts Options) (*Result, error) {
	n := len(f)
	m := 0
	if a != nil {
		m = a.Rows()
	}
	opts = opts.withDefaults(n, m)
	x := mat.VecClone(x0)
	if v := maxViolation(a, b, x); v > 1e-6 {
		return nil, fmt.Errorf("qp: x0 violates constraints by %g: %w", v, ErrInfeasible)
	}
	var working []int
	inWorking := make([]bool, m)
	seed := func(i int) {
		if len(working) >= n || inWorking[i] {
			return
		}
		if math.Abs(mat.Dot(a.RowView(i), x)-b[i]) <= opts.Tol {
			if refAddIfIndependent(a, working, i) {
				working = append(working, i)
				inWorking[i] = true
			}
		}
	}
	for _, i := range opts.WarmStart {
		if i >= 0 && i < m {
			before := len(working)
			seed(i)
			refStats.warmSeeds += len(working) - before
		}
	}
	for i := 0; i < m; i++ {
		seed(i)
	}
	g := make([]float64, n)
	iter := 0
	stationarity := math.Inf(1)
	for ; iter < opts.MaxIter; iter++ {
		h.MulVecTo(g, x)
		for i := range g {
			g[i] += f[i]
		}
		p, lambda, err := refSolveKKT(hchol, a, working, g)
		if err != nil {
			if len(working) == 0 {
				return nil, fmt.Errorf("qp: KKT solve failed with empty working set: %v: %w", err, ErrSingular)
			}
			refStats.truncations++
			last := working[len(working)-1]
			working = working[:len(working)-1]
			inWorking[last] = false
			continue
		}
		scale := 1 + mat.NormInf(x)
		stationarity = mat.NormInf(p) / scale
		if mat.NormInf(p) <= opts.Tol*scale {
			minIdx, minVal := -1, -opts.Tol
			for wi, l := range lambda {
				if l < minVal {
					minIdx, minVal = wi, l
				}
			}
			if minIdx < 0 {
				return refResult(h, f, x, iter, working, StatusOK, stationarity), nil
			}
			if minIdx < len(working)-1 {
				refStats.midDrops++
			}
			dropped := working[minIdx]
			working = append(working[:minIdx], working[minIdx+1:]...)
			inWorking[dropped] = false
			continue
		}
		alpha, blocking := 1.0, -1
		for i := 0; i < m; i++ {
			if inWorking[i] {
				continue
			}
			ai := a.RowView(i)
			denom := mat.Dot(ai, p)
			if denom <= opts.Tol {
				continue
			}
			step := (b[i] - mat.Dot(ai, x)) / denom
			if step < alpha {
				alpha, blocking = step, i
			}
		}
		if alpha < 0 {
			alpha = 0
		}
		for i := range x {
			x[i] += alpha * p[i]
		}
		if blocking >= 0 && len(working) < n {
			if refAddIfIndependent(a, working, blocking) {
				working = append(working, blocking)
				inWorking[blocking] = true
			} else if mat.IsZero(alpha) {
				continue
			}
		}
	}
	refStats.cappedSolves++
	return refResult(h, f, x, iter, working, StatusIterationCapped, stationarity), ErrMaxIterations
}

func refResult(h *mat.Dense, f, x []float64, iter int, working []int, status Status, stationarity float64) *Result {
	return &Result{
		X:            mat.VecClone(x),
		Objective:    0.5*mat.Dot(x, h.MulVec(x)) + mat.Dot(f, x),
		Iterations:   iter,
		Active:       append([]int(nil), working...),
		Status:       status,
		Stationarity: stationarity,
	}
}

func refAddIfIndependent(a *mat.Dense, working []int, idx int) bool {
	if len(working) == 0 {
		return mat.Norm2(a.RowView(idx)) > 0
	}
	n := a.Cols()
	awt := mat.New(n, len(working))
	for j, w := range working {
		row := a.RowView(w)
		for i := 0; i < n; i++ {
			awt.Set(i, j, row[i])
		}
	}
	ai := a.RowView(idx)
	y, err := mat.LeastSquares(awt, ai)
	if err != nil {
		refStats.degenerateAdds++
		return true
	}
	res := mat.VecSub(awt.MulVec(y), ai)
	independent := mat.Norm2(res) > 1e-9*(1+mat.Norm2(ai))
	if !independent {
		refStats.dependentAdds++
	}
	return independent
}

func refSolveKKT(hchol *mat.SPDFactor, a *mat.Dense, working []int, g []float64) (p, lambda []float64, err error) {
	n := len(g)
	hg, err := hchol.SolveVec(g)
	if err != nil {
		return nil, nil, err
	}
	p = make([]float64, n)
	k := len(working)
	if k == 0 {
		for i := range p {
			p[i] = -hg[i]
		}
		return p, nil, nil
	}
	hat := make([][]float64, k)
	for wi, w := range working {
		if hat[wi], err = hchol.SolveVec(a.RowView(w)); err != nil {
			return nil, nil, err
		}
	}
	s := mat.New(k, k)
	rhs := make([]float64, k)
	for i, w := range working {
		ai := a.RowView(w)
		for j := 0; j < k; j++ {
			s.Set(i, j, mat.Dot(ai, hat[j]))
		}
		rhs[i] = -mat.Dot(ai, hg)
	}
	lambda, err = mat.SolveVec(s, rhs)
	if err != nil {
		return nil, nil, err
	}
	for i := range p {
		v := -hg[i]
		for j := 0; j < k; j++ {
			v -= lambda[j] * hat[j][i]
		}
		p[i] = v
	}
	return p, lambda, nil
}
