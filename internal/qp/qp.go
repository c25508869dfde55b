// Package qp implements a dense primal active-set solver for strictly
// convex quadratic programs and inequality-constrained least-squares
// problems. It is the Go replacement for the MATLAB lsqlin solver that the
// EUCON paper's controller used (an active-set method in the style of Gill,
// Murray and Wright, "Practical Optimization").
//
// Problems have the form
//
//	minimize   ½·xᵀHx + fᵀx
//	subject to A·x ≤ b
//
// with H symmetric positive definite. Constrained least squares
// (min ‖Cx − d‖₂² s.t. Ax ≤ b) is handled by SolveLSI, which forms
// H = CᵀC + εI to guarantee strict convexity; callers that solve the same
// C against many right-hand sides (the MPC hot path) should build an LSI
// once and reuse it, which caches H and its Cholesky factorization and
// makes steady-state solves allocation-free. A phase-1 slack program is
// used to recover a feasible start when the caller's initial point violates
// the constraints, which happens in EUCON whenever a processor is overloaded
// (u(k) > B makes Δr = 0 infeasible for the output constraints).
//
// Internally each active-set iteration solves the equality-constrained
// subproblem through the Schur complement Aw·H⁻¹·Awᵀ of the cached H
// factorization, so the per-iteration dense solve is k×k (k = working-set
// size, at most the variable count) instead of (n+k)×(n+k). Within a
// solve, H⁻¹·a_w, the Schur entries and the QR of the working rows are
// cached per working-set slot and reused until their slot is dropped,
// with results bit-identical to recomputing them every iteration.
package qp

import (
	"errors"
	"fmt"
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// ErrInfeasible is returned when no point satisfies the constraints to
// within tolerance.
var ErrInfeasible = errors.New("qp: constraints are infeasible")

// ErrMaxIterations is returned when the active-set loop fails to converge;
// the best iterate found so far accompanies the error in Result.X.
var ErrMaxIterations = errors.New("qp: active-set iteration limit reached")

// ErrSingular is returned when a linear system at the heart of the solve
// (the Hessian's Cholesky factorization, or a KKT system with an empty
// working set) is numerically singular. Callers that need to keep a control
// loop alive should treat it as "this problem cannot be solved as posed"
// and fall back to a regularized problem or hold their previous output.
var ErrSingular = errors.New("qp: numerically singular system")

// Status classifies a solve outcome for callers that must stay alive
// through solver failures (see Result.Status). It mirrors the error
// identities above but travels with the Result, so the best iterate and
// the failure class arrive together on the hot path without error
// unwrapping.
//
//eucon:exhaustive
type Status int

const (
	// StatusOK: converged to a KKT point within tolerance.
	StatusOK Status = iota
	// StatusIterationCapped: the iteration limit was hit; Result.X holds
	// the best iterate and Result.Stationarity its convergence measure.
	StatusIterationCapped
	// StatusInfeasible: no point satisfies the constraints.
	StatusInfeasible
	// StatusSingular: a Hessian factorization or empty-working-set KKT
	// system was numerically singular.
	StatusSingular
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusIterationCapped:
		return "iteration-capped"
	case StatusInfeasible:
		return "infeasible"
	case StatusSingular:
		return "singular"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes the solver. The zero value selects sensible defaults.
type Options struct {
	// MaxIter caps active-set iterations. Default: 50·(n + rows(A)) + 100.
	MaxIter int
	// Tol is the feasibility and optimality tolerance. Default: 1e-9.
	Tol float64
	// WarmStart lists constraint indices to try first when seeding the
	// working set (typically the active set of the previous, similar
	// solve). Only constraints that are actually active at the starting
	// point are admitted, so warm starting changes the search order but
	// never correctness. Out-of-range indices are ignored.
	WarmStart []int
	// ForceDense disables structure detection in LSI: the least-squares
	// Hessian is factored through the exact dense Cholesky path even when a
	// fill-reducing ordering would expose a narrow band. Used by the
	// dense↔structured equivalence tests and benchmarks; production callers
	// leave it false.
	ForceDense bool
}

func (o Options) withDefaults(n, m int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50*(n+m) + 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Result reports a solve outcome.
type Result struct {
	// X is the minimizer (or best iterate on error).
	X []float64
	// Objective is ½xᵀHx + fᵀx at X.
	Objective float64
	// Iterations is the number of active-set iterations performed.
	Iterations int
	// Active lists the indices of constraints active at X.
	Active []int
	// Status classifies the outcome (see Status). A non-OK status always
	// travels with the matching sentinel error, but the Result still holds
	// the best iterate found, so degradation policies can decide whether it
	// is usable.
	Status Status
	// Stationarity is the scaled norm of the last KKT step,
	// ‖p‖∞ / (1 + ‖x‖∞) — the solver's own convergence measure. At a
	// converged solution it is at most the tolerance; for an
	// iteration-capped solve it quantifies how far from stationary the best
	// iterate is (math.Inf(1) when no KKT step ever succeeded).
	Stationarity float64
}

// workspace holds the scratch, the caches and the Result of one
// active-set solve, so repeated solves through an LSI allocate nothing
// once ensure has sized the buffers. A zero workspace is ready for use;
// ensure sizes it lazily at the first solve.
//
// Two caches follow the working set slot by slot. Both are rebuilt from
// scratch at the start of every solve, because the constraint matrix may
// change between solves:
//
//   - hat[j] = H⁻¹·a_w and the Schur entries sc[i][j] = a_{w_i}·hat[j] for
//     the first nhat slots. A slot is computed once, when solveKKT first
//     sees it; a drop shifts the later slots down with the working set.
//   - qr, the Householder QR of the working rows taken as columns, valid
//     for its first qr.Cols() slots. addIfIndependent factors only the
//     slots appended since the last check; a drop at slot i truncates it
//     to i columns.
//
// Every cached value is the one the from-scratch computation would
// produce (see DESIGN.md §6, "Memory model"), so solves are bit-identical
// to re-solving and re-factoring everything each iteration.
type workspace struct {
	n           int // variable count the buffers are sized for
	x, g, hg, p []float64
	working     []int
	inWorking   []bool

	hat  [][]float64 // H⁻¹·a_w per working slot, valid for slots < nhat
	sc   []float64   // Schur entries, row-major with stride n, valid for slots < nhat
	nhat int

	lu          mat.LU // factors a k×k copy of the Schur cache in place
	rhs, lambda []float64

	qr            mat.QR    // QR of the working rows as columns, valid for slots < qr.Cols()
	y, qrY, resid []float64 // addIfIndependent scratch
	hx            []float64 // H·x for the objective
	res           Result
	resX          []float64
	resActive     []int
}

// ensure sizes the workspace for n variables and m constraints and starts
// an empty working set. Every buffer a solve can touch is sized here, in a
// handful of allocations, the first time an n-variable problem arrives;
// afterwards only a constraint matrix with more rows than any before grows
// the inWorking flags. An LSI's variable count is fixed, so its
// steady-state solves allocate nothing.
//
//eucon:noalloc
func (ws *workspace) ensure(n, m int) {
	if ws.n != n || ws.x == nil {
		ws.n = n
		// One slab backs every float vector and both n×n caches.
		fs := make([]float64, 11*n+2*n*n) //eucon:alloc-ok sized once per variable count
		ws.x, ws.g, ws.hg, ws.p = carve(&fs, n), carve(&fs, n), carve(&fs, n), carve(&fs, n)
		ws.rhs, ws.lambda = carve(&fs, n), carve(&fs, n)
		ws.y, ws.qrY, ws.resid = carve(&fs, n), carve(&fs, n), carve(&fs, n)
		ws.hx, ws.resX = carve(&fs, n), carve(&fs, n)
		ws.sc = carve(&fs, n*n)
		ws.hat = make([][]float64, n) //eucon:alloc-ok sized once per variable count
		for i := range ws.hat {
			ws.hat[i] = carve(&fs, n)
		}
		is := make([]int, 2*n) //eucon:alloc-ok sized once per variable count
		ws.working, ws.resActive = is[:0:n], is[n:n:2*n]
		ws.lu.Reset(n)
	}
	if cap(ws.inWorking) < m {
		ws.inWorking = make([]bool, m) //eucon:alloc-ok grows only to the largest constraint matrix seen
	}
	ws.inWorking = ws.inWorking[:m]
	clear(ws.inWorking)
	ws.working = ws.working[:0]
	ws.nhat = 0
	ws.qr.Reset(n)
}

// carve cuts the next k elements off *slab.
func carve(slab *[]float64, k int) []float64 {
	v := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return v
}

// Solve minimizes ½xᵀHx + fᵀx subject to a·x ≤ b, starting from the
// feasible point x0. H must be symmetric positive definite and x0 must
// satisfy the constraints (use FindFeasible otherwise).
func Solve(h *mat.Dense, f []float64, a *mat.Dense, b []float64, x0 []float64, opts Options) (*Result, error) {
	n := len(f)
	if h.Rows() != n || h.Cols() != n {
		return nil, fmt.Errorf("qp: H is %dx%d, want %dx%d", h.Rows(), h.Cols(), n, n)
	}
	hchol, err := mat.FactorSPDDense(h)
	if err != nil {
		return nil, fmt.Errorf("qp: factor H: %v: %w", err, ErrSingular)
	}
	return solveActiveSet(h, hchol, f, a, b, x0, opts, &workspace{})
}

// solveActiveSet is the primal active-set loop behind Solve and LSI.Solve.
// hchol is the (possibly banded) factorization of h; ws supplies the
// scratch, the caches, and the returned Result, which aliases ws and is
// valid until ws's next solve.
//
//eucon:noalloc
func solveActiveSet(h *mat.Dense, hchol *mat.SPDFactor, f []float64, a *mat.Dense, b []float64, x0 []float64, opts Options, ws *workspace) (*Result, error) {
	n := len(f)
	m := 0
	if a != nil {
		m = a.Rows()
		if a.Cols() != n {
			return nil, fmt.Errorf("qp: A has %d columns, want %d", a.Cols(), n) //eucon:alloc-ok error path only; the hot path never formats
		}
		if len(b) != m {
			return nil, fmt.Errorf("qp: b has length %d, want %d", len(b), m) //eucon:alloc-ok error path only; the hot path never formats
		}
	}
	if len(x0) != n {
		return nil, fmt.Errorf("qp: x0 has length %d, want %d", len(x0), n) //eucon:alloc-ok error path only; the hot path never formats
	}
	opts = opts.withDefaults(n, m)

	ws.ensure(n, m)
	x := ws.x
	copy(x, x0)
	if v := maxViolation(a, b, x); v > 1e-6 {
		return nil, fmt.Errorf("qp: x0 violates constraints by %g: %w", v, ErrInfeasible) //eucon:alloc-ok error path only; the hot path never formats
	}

	// Working set: indices of constraints treated as equalities. Seed with
	// constraints active at x0, trying the caller's warm-start set first so
	// a solve that resembles the previous one starts from (nearly) the
	// optimal working set.
	for _, i := range opts.WarmStart {
		if i >= 0 && i < m {
			ws.seed(a, b, i, opts.Tol)
		}
	}
	for i := 0; i < m; i++ {
		ws.seed(a, b, i, opts.Tol)
	}

	iter := 0
	stationarity := math.Inf(1) // scaled norm of the most recent KKT step
	for ; iter < opts.MaxIter; iter++ {
		h.MulVecTo(ws.g, x)
		for i := range ws.g {
			ws.g[i] += f[i]
		}
		p, lambda, err := ws.solveKKT(hchol, a, ws.g)
		if err != nil {
			// Degenerate working set: drop the most recently added
			// constraint and retry.
			if len(ws.working) == 0 {
				return nil, fmt.Errorf("qp: KKT solve failed with empty working set: solve KKT system: %v: %w", err, ErrSingular) //eucon:alloc-ok terminal error path; the retry path never formats
			}
			ws.drop(len(ws.working) - 1)
			continue
		}
		scale := 1 + mat.NormInf(x)
		stationarity = mat.NormInf(p) / scale
		if mat.NormInf(p) <= opts.Tol*scale {
			// Stationary on the working set: check multipliers.
			minIdx, minVal := -1, -opts.Tol
			for wi, l := range lambda {
				if l < minVal {
					minIdx, minVal = wi, l
				}
			}
			if minIdx < 0 {
				return ws.result(h, f, iter, StatusOK, stationarity), nil
			}
			// Drop the constraint with the most negative multiplier.
			ws.drop(minIdx)
			continue
		}
		// Line search to the nearest blocking constraint.
		alpha, blocking := 1.0, -1
		for i := 0; i < m; i++ {
			if ws.inWorking[i] {
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
		if blocking >= 0 && len(ws.working) < n {
			if ws.addIfIndependent(a, blocking) {
				ws.push(blocking)
			} else if mat.IsZero(alpha) {
				// Degenerate zero step onto a dependent constraint: give the
				// multiplier check a chance by treating it as stationary next
				// round; avoid infinite loops via the iteration cap.
				continue
			}
		}
	}
	return ws.result(h, f, iter, StatusIterationCapped, stationarity), ErrMaxIterations
}

// seed admits constraint i to the working set when it is active at the
// starting point and independent of the constraints already admitted.
//
//eucon:noalloc
func (ws *workspace) seed(a *mat.Dense, b []float64, i int, tol float64) {
	if len(ws.working) >= ws.n || ws.inWorking[i] {
		return
	}
	if math.Abs(mat.Dot(a.RowView(i), ws.x)-b[i]) <= tol {
		if ws.addIfIndependent(a, i) {
			ws.push(i)
		}
	}
}

// push appends constraint i to the working set. The caches extend lazily.
//
//eucon:noalloc
func (ws *workspace) push(i int) {
	k := len(ws.working)
	ws.working = ws.working[:k+1]
	ws.working[k] = i
	ws.inWorking[i] = true
}

// drop removes working slot pos. The cached H⁻¹·a_w slots and Schur
// entries after pos shift down with the working set (nothing is
// re-solved), and the QR keeps its columns before pos.
//
//eucon:noalloc
func (ws *workspace) drop(pos int) {
	w := ws.working
	ws.inWorking[w[pos]] = false
	copy(w[pos:], w[pos+1:])
	ws.working = w[:len(w)-1]
	if k := ws.nhat; pos < k {
		n, sc := ws.n, ws.sc
		buf := ws.hat[pos]
		copy(ws.hat[pos:k-1], ws.hat[pos+1:k])
		ws.hat[k-1] = buf
		for i := 0; i < k; i++ {
			row := sc[i*n : i*n+k]
			copy(row[pos:], row[pos+1:])
		}
		copy(sc[pos*n:(k-1)*n], sc[(pos+1)*n:k*n])
		ws.nhat = k - 1
	}
	ws.qr.Truncate(pos)
}

// result fills the workspace-owned Result from the current iterate.
//
//eucon:noalloc
func (ws *workspace) result(h *mat.Dense, f []float64, iter int, status Status, stationarity float64) *Result {
	r := &ws.res
	r.X = ws.resX[:ws.n]
	copy(r.X, ws.x)
	r.Active = ws.resActive[:len(ws.working)]
	copy(r.Active, ws.working)
	r.Objective = ws.objective(h, f)
	r.Iterations = iter
	r.Status = status
	r.Stationarity = stationarity
	return r
}

// addIfIndependent reports whether row idx of a is linearly independent of
// the rows already in the working set (so the KKT system stays
// nonsingular): it solves min‖Awᵀy − aᵢ‖ and tests the residual. Only the
// working slots appended since the last call are factored into the cached
// QR; the rest of it is reused as is.
//
//eucon:noalloc
func (ws *workspace) addIfIndependent(a *mat.Dense, idx int) bool {
	ai := a.RowView(idx)
	k := len(ws.working)
	if k == 0 {
		return mat.Norm2(ai) > 0
	}
	for j := ws.qr.Cols(); j < k; j++ {
		ws.qr.AppendColumn(a.RowView(ws.working[j]))
	}
	y := ws.y[:k]
	if ws.qr.SolveLeastSquaresTo(y, ws.qrY, ai) != nil {
		return true // rank-deficient basis is handled by the KKT fallback
	}
	// A tiny residual Awᵀy − aᵢ means aᵢ ∈ span(rows of Aw).
	res := ws.resid
	for i := range res {
		var s float64
		for j, w := range ws.working {
			s += a.At(w, i) * y[j]
		}
		res[i] = s - ai[i]
	}
	return mat.Norm2(res) > 1e-9*(1+mat.Norm2(ai))
}

// solveKKT solves the equality-constrained subproblem
//
//	min ½pᵀHp + gᵀp  s.t.  Aw·p = 0
//
// returning the step p and the Lagrange multipliers of the working
// constraints. It uses the cached Cholesky factorization of H and the
// Schur complement S = Aw·H⁻¹·Awᵀ, so the only dense factorization is
// k×k. Both returned slices alias workspace storage valid until the next
// call. A singular system returns the factorization's bare error, so the
// caller's drop-and-retry never formats one.
//
//eucon:noalloc
func (ws *workspace) solveKKT(hchol *mat.SPDFactor, a *mat.Dense, g []float64) (p, lambda []float64, err error) {
	hg := ws.hg
	if err := hchol.SolveVecTo(hg, g); err != nil {
		return nil, nil, err
	}
	p = ws.p
	k := len(ws.working)
	if k == 0 {
		for i := range p {
			p[i] = -hg[i]
		}
		return p, nil, nil
	}
	if err := ws.extendSchur(hchol, a); err != nil {
		return nil, nil, err
	}
	// S·λ = −Aw·H⁻¹·g with S[i][j] = a_i·H⁻¹·a_j.
	n := ws.n
	s := ws.lu.Reset(k)
	rhs := ws.rhs[:k]
	for i, w := range ws.working {
		copy(s.RowView(i), ws.sc[i*n:i*n+k])
		rhs[i] = -mat.Dot(a.RowView(w), hg)
	}
	if err := ws.lu.Factor(); err != nil {
		return nil, nil, err
	}
	lambda = ws.lambda[:k]
	if err := ws.lu.SolveVecTo(lambda, rhs); err != nil {
		return nil, nil, err
	}
	// p = −H⁻¹·g − Σ λ_j·H⁻¹·a_j.
	for i := range p {
		v := -hg[i]
		for j := 0; j < k; j++ {
			v -= lambda[j] * ws.hat[j][i]
		}
		p[i] = v
	}
	return p, lambda, nil
}

// extendSchur computes H⁻¹·a_w and the Schur row and column of every
// working slot added since the last call.
//
//eucon:noalloc
func (ws *workspace) extendSchur(hchol *mat.SPDFactor, a *mat.Dense) error {
	n, sc := ws.n, ws.sc
	for j := ws.nhat; j < len(ws.working); j++ {
		aj := a.RowView(ws.working[j])
		if err := hchol.SolveVecTo(ws.hat[j], aj); err != nil {
			return err
		}
		for i := 0; i < j; i++ {
			sc[i*n+j] = mat.Dot(a.RowView(ws.working[i]), ws.hat[j])
		}
		for i := 0; i <= j; i++ {
			sc[j*n+i] = mat.Dot(aj, ws.hat[i])
		}
		ws.nhat = j + 1
	}
	return nil
}

// objective returns ½xᵀHx + fᵀx at the current iterate.
//
//eucon:noalloc
func (ws *workspace) objective(h *mat.Dense, f []float64) float64 {
	h.MulVecTo(ws.hx, ws.x)
	return 0.5*mat.Dot(ws.x, ws.hx) + mat.Dot(f, ws.x)
}

func maxViolation(a *mat.Dense, b, x []float64) float64 {
	if a == nil {
		return 0
	}
	var v float64
	for i := 0; i < a.Rows(); i++ {
		if d := mat.Dot(a.RowView(i), x) - b[i]; d > v {
			v = d
		}
	}
	return v
}
