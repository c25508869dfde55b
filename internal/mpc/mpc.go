// Package mpc implements the model predictive controller at the heart of
// EUCON (paper §6.1): receding-horizon control of the linear
// difference-equation model
//
//	u(k) = u(k−1) + F·Δr(k−1)
//
// minimizing the cost function (7) — tracking error against an exponential
// reference trajectory plus a control-change penalty — subject to output
// constraints u ≤ B and actuator box constraints R_min ≤ r ≤ R_max. The
// constrained optimization is transformed to an inequality-constrained
// least-squares problem and solved by internal/qp, mirroring the paper's
// use of MATLAB's lsqlin.
package mpc

import (
	"errors"
	"fmt"
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/qp"
)

// Config holds the controller tuning parameters (paper Table 2).
type Config struct {
	// PredictionHorizon is P: how many sampling periods ahead outputs are
	// predicted.
	PredictionHorizon int
	// ControlHorizon is M ≤ P: how many future control moves are decision
	// variables; moves beyond M are zero.
	ControlHorizon int
	// TrefOverTs is the reference-trajectory time constant divided by the
	// sampling period (Tref/Ts in eq. 8). Larger values give slower, smoother
	// convergence.
	TrefOverTs float64
	// QWeights are per-output tracking weights w_i (eq. 7); nil means all 1.
	QWeights []float64
	// RWeights are per-input control-penalty weights; nil means all 1.
	RWeights []float64
	// DisableOutputConstraints drops the hard u(k+i|k) ≤ B constraints,
	// leaving only the actuator box. Used for ablation studies.
	DisableOutputConstraints bool
	// Solver tunes the underlying QP solver.
	Solver qp.Options
}

func (c Config) validate(n, m int) error {
	if c.PredictionHorizon < 1 {
		return fmt.Errorf("mpc: prediction horizon %d must be >= 1", c.PredictionHorizon)
	}
	if c.ControlHorizon < 1 || c.ControlHorizon > c.PredictionHorizon {
		return fmt.Errorf("mpc: control horizon %d must be in [1, %d]", c.ControlHorizon, c.PredictionHorizon)
	}
	if c.TrefOverTs <= 0 {
		return errors.New("mpc: TrefOverTs must be positive")
	}
	if c.QWeights != nil && len(c.QWeights) != n {
		return fmt.Errorf("mpc: QWeights has length %d, want %d", len(c.QWeights), n)
	}
	if c.RWeights != nil && len(c.RWeights) != m {
		return fmt.Errorf("mpc: RWeights has length %d, want %d", len(c.RWeights), m)
	}
	for _, w := range c.QWeights {
		if w < 0 {
			return errors.New("mpc: QWeights must be non-negative")
		}
	}
	for _, w := range c.RWeights {
		if w < 0 {
			return errors.New("mpc: RWeights must be non-negative")
		}
	}
	return nil
}

// Controller is a MIMO receding-horizon controller for the EUCON plant
// model. It is not safe for concurrent use.
//
// Everything that does not depend on the measurements is computed once at
// construction and cached: the least-squares stack C (and, inside the LSI
// solver, its Hessian CᵀC with Cholesky factorization) and both constraint
// matrices. StepTo only refreshes the right-hand sides, so the steady-state
// control path performs no matrix assembly and near-zero allocation.
type Controller struct {
	f         *mat.Dense // n×m allocation matrix
	setPoints []float64  // B, length n
	rmin      []float64  // length m
	rmax      []float64  // length m
	cfg       Config
	n, m      int

	sqrtQ []float64 // √QWeights
	sqrtR []float64 // √RWeights
	lam   []float64 // λ_i = 1 − e^{−i/(Tref/Ts)} for i = 1..P

	prevDelta []float64 // Δr(k−1), for the control penalty

	// Anti-windup state: lastRates remembers the rates argument of the
	// previous step (the rates the plant actually applied), so the move
	// memory can be reconciled with the achieved move when an actuator
	// fault keeps a command from taking effect (see pre).
	lastRates   []float64
	haveLast    bool
	windupSyncs int

	// Cached problem structure (constant across sampling periods).
	cmat  *mat.Dense // least-squares stack C; only d changes per period
	lsi   *qp.LSI    // caches CᵀC + Cholesky, scratch, warm-start set
	aFull *mat.Dense // rate box + output constraints (output part empty when disabled)
	aBox  *mat.Dense // rate box only (the relaxation fallback)

	// Tikhonov fallback solver: the stack [C; √λ·I] against the rate box,
	// used when the nominal solve fails numerically (see StepTo's degradation
	// ladder). Built once at construction; nil only if its Hessian cannot
	// be factored, in which case the ladder skips straight to holding.
	lsiReg *qp.LSI

	// Containment counters (cleared by Reset): how many Steps were
	// resolved by each below-nominal rung of the degradation ladder.
	bestIterates int
	regularized  int
	heldSteps    int
	lastOutcome  SolveOutcome

	// Per-period scratch (right-hand sides and starting point).
	dbuf        []float64
	dregBuf     []float64 // dbuf extended with the Tikhonov zero targets
	bFull, bBox []float64
	z0          []float64
	fastX       []float64 // StepTo interior fast-path solution scratch
	prevRelaxed bool      // which constraint variant the warm-start set refers to

	// GainsTo scratch: the QR factorization of the least-squares stack is
	// constant after construction, so it is computed once on first use and
	// cached with the basis-response buffers.
	gainFac *mat.QR
	gainD   []float64 // basis right-hand side, cmat rows
	gainY   []float64 // Qᵀ·d scratch, cmat rows
	gainZ   []float64 // basis solution, cmat cols
}

// SolveOutcome classifies how a step obtained its control move — which
// rung of the numerical-failure degradation ladder produced the applied
// rates. The ladder never lets a solver failure escape as an error or a
// non-finite rate: each rung is strictly more conservative than the one
// above it, and the bottom rung (holding the applied rates) is always
// available.
//
//eucon:exhaustive
type SolveOutcome int

const (
	// SolveOK: the constrained solve converged with the full constraint
	// set.
	SolveOK SolveOutcome = iota
	// SolveRelaxed: the hard output constraints were infeasible (severe
	// overload) and were dropped for the period; the tracking term still
	// steers utilization toward the set points.
	SolveRelaxed
	// SolveBestIterate: the solver hit its iteration cap, but the best
	// iterate is feasible, finite, and nearly stationary (KKT residual
	// within bestIterateResidualBound), so it was applied as-is.
	SolveBestIterate
	// SolveRegularized: the solve failed outright (singular system, or an
	// iteration-capped iterate too far from stationary) and a
	// Tikhonov-regularized re-solve against the always-feasible rate box
	// produced the move instead.
	SolveRegularized
	// SolveHeld: every rung above failed; the controller held the
	// last-applied rates (Δr = 0). The move memory reconciles itself
	// through the anti-windup resync on the next step, so no windup
	// accumulates while holding.
	SolveHeld
	// SolveExplicit and SolveExplicitMiss are never produced. They
	// belonged to a removed explicit-MPC law and stay only because
	// outcome-count arrays elsewhere are sized SolveExplicitMiss+1.
	SolveExplicit
	SolveExplicitMiss
)

// String implements fmt.Stringer.
func (o SolveOutcome) String() string {
	switch o {
	case SolveOK:
		return "ok"
	case SolveRelaxed:
		return "relaxed"
	case SolveBestIterate:
		return "best-iterate"
	case SolveRegularized:
		return "regularized"
	case SolveHeld:
		return "held"
	case SolveExplicit:
		return "explicit"
	case SolveExplicitMiss:
		return "explicit-miss"
	default:
		return fmt.Sprintf("SolveOutcome(%d)", int(o))
	}
}

// Degraded reports whether the outcome came from a containment rung below
// the normal solve paths (best-iterate, regularized, or held).
func (o SolveOutcome) Degraded() bool {
	switch o {
	case SolveBestIterate, SolveRegularized, SolveHeld:
		return true
	case SolveOK, SolveRelaxed, SolveExplicit, SolveExplicitMiss:
		return false
	}
	return false
}

// bestIterateResidualBound is the acceptance threshold for an
// iteration-capped solve: the best iterate is applied when its scaled KKT
// step norm (qp.Result.Stationarity) is at most this bound. The receding
// horizon re-solves every period, so a near-stationary move is safe to
// apply; anything farther off falls through to the regularized re-solve.
const bestIterateResidualBound = 1e-2

// tikhonovWeightFrac sizes the Tikhonov term of the fallback solver
// relative to the least-squares stack: √λ = tikhonovWeightFrac·max(1, ‖C‖max),
// i.e. λ caps the Hessian condition number near 1/tikhonovWeightFrac² while
// biasing the move toward Δr = 0 (the safest direction when the nominal
// problem is numerically sick).
const tikhonovWeightFrac = 0.1

// StepResult reports one control computation.
type StepResult struct {
	// DeltaR is the applied control input Δr(k) (first move of the optimal
	// trajectory).
	DeltaR []float64
	// NewRates is r(k−1) + Δr(k), clipped to the rate bounds.
	NewRates []float64
	// PredictedUtil is the model's one-step utilization prediction
	// u(k) + F·Δr(k).
	PredictedUtil []float64
	// OutputConstraintsRelaxed reports that the utilization constraints had
	// to be dropped this period because no rate vector could satisfy them
	// (severe overload); the tracking term still steers u toward B.
	OutputConstraintsRelaxed bool
	// SolverIterations counts active-set iterations used.
	SolverIterations int
	// Outcome reports which rung of the degradation ladder produced
	// NewRates (see SolveOutcome). NewRates is finite and within the rate
	// box for every outcome.
	Outcome SolveOutcome
}

// New builds a controller for the allocation matrix f (n processors × m
// tasks), utilization set points, and per-task rate bounds.
func New(f *mat.Dense, setPoints, rmin, rmax []float64, cfg Config) (*Controller, error) {
	n, m := f.Dims()
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("mpc: empty allocation matrix %dx%d", n, m)
	}
	if len(setPoints) != n {
		return nil, fmt.Errorf("mpc: setPoints has length %d, want %d", len(setPoints), n)
	}
	if len(rmin) != m || len(rmax) != m {
		return nil, fmt.Errorf("mpc: rate bounds have lengths %d/%d, want %d", len(rmin), len(rmax), m)
	}
	for i := range rmin {
		if rmin[i] > rmax[i] {
			return nil, fmt.Errorf("mpc: rmin[%d] = %g > rmax[%d] = %g", i, rmin[i], i, rmax[i])
		}
	}
	if err := cfg.validate(n, m); err != nil {
		return nil, err
	}
	c := &Controller{
		f:         f.Clone(),
		setPoints: mat.VecClone(setPoints),
		rmin:      mat.VecClone(rmin),
		rmax:      mat.VecClone(rmax),
		cfg:       cfg,
		n:         n,
		m:         m,
		prevDelta: make([]float64, m),
		lastRates: make([]float64, m),
	}
	c.sqrtQ = mat.Constant(n, 1)
	if cfg.QWeights != nil {
		for i, w := range cfg.QWeights {
			c.sqrtQ[i] = math.Sqrt(w)
		}
	}
	c.sqrtR = mat.Constant(m, 1)
	if cfg.RWeights != nil {
		for i, w := range cfg.RWeights {
			c.sqrtR[i] = math.Sqrt(w)
		}
	}
	c.lam = make([]float64, cfg.PredictionHorizon+1)
	for i := 1; i <= cfg.PredictionHorizon; i++ {
		c.lam[i] = 1 - math.Exp(-float64(i)/cfg.TrefOverTs)
	}
	// Hoist every measurement-independent part of the optimization out of
	// the per-period path.
	c.cmat = c.buildLeastSquaresMatrix()
	lsi, err := qp.NewLSI(c.cmat, cfg.Solver)
	if err != nil {
		return nil, fmt.Errorf("mpc: prepare least-squares solver: %w", err)
	}
	c.lsi = lsi
	c.aFull = c.buildConstraintMatrix(true)
	c.aBox = c.buildConstraintMatrix(false)
	c.dbuf = make([]float64, c.cmat.Rows())
	c.bFull = make([]float64, c.aFull.Rows())
	c.bBox = make([]float64, c.aBox.Rows())
	c.z0 = make([]float64, m*cfg.ControlHorizon)
	c.fastX = make([]float64, m*cfg.ControlHorizon)

	// Tikhonov fallback: min ‖C·z − d‖² + λ‖z‖² as the augmented stack
	// [C; √λ·I] with zero targets on the new rows. λ is sized from C so the
	// fallback Hessian is well conditioned even when CᵀC is numerically
	// singular; a factorization failure here (pathological weights) just
	// removes the rung — the ladder then degrades from a failed nominal
	// solve directly to holding rates.
	nz := m * cfg.ControlHorizon
	sqrtLam := tikhonovWeightFrac * math.Max(1, c.cmat.MaxAbs())
	creg := mat.New(c.cmat.Rows()+nz, nz)
	for i := 0; i < c.cmat.Rows(); i++ {
		for j := 0; j < nz; j++ {
			creg.Set(i, j, c.cmat.At(i, j))
		}
	}
	for j := 0; j < nz; j++ {
		creg.Set(c.cmat.Rows()+j, j, sqrtLam)
	}
	if reg, err := qp.NewLSI(creg, cfg.Solver); err == nil {
		c.lsiReg = reg
		c.dregBuf = make([]float64, creg.Rows())
	}
	return c, nil
}

// SetPoints returns a copy of the current utilization set points.
func (c *Controller) SetPoints() []float64 { return mat.VecClone(c.setPoints) }

// AppendSetPoints appends the current utilization set points to dst and
// returns the extended slice, which aliases dst's backing array when its
// capacity suffices — the zero-allocation variant of SetPoints for hot
// paths that reuse one buffer across control steps.
//
//eucon:noalloc
func (c *Controller) AppendSetPoints(dst []float64) []float64 {
	return append(dst, c.setPoints...) //eucon:alloc-ok grows only when the caller under-provisions capacity
}

// UpdateSetPoints changes the utilization set points online (paper §3.3,
// overload protection: set points can be lowered in anticipation of load).
func (c *Controller) UpdateSetPoints(b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("mpc: set points have length %d, want %d", len(b), c.n)
	}
	copy(c.setPoints, b)
	return nil
}

// Reset clears the controller's memory of the previous control move and
// the solver's warm-start state.
func (c *Controller) Reset() {
	for i := range c.prevDelta {
		c.prevDelta[i] = 0
	}
	for i := range c.lastRates {
		c.lastRates[i] = 0
	}
	c.haveLast = false
	c.windupSyncs = 0
	c.lsi.ResetWarmStart()
	if c.lsiReg != nil {
		c.lsiReg.ResetWarmStart()
	}
	c.prevRelaxed = false
	c.bestIterates = 0
	c.regularized = 0
	c.heldSteps = 0
	c.lastOutcome = SolveOK
}

// ContainmentCounts reports how many Steps since construction or Reset
// were resolved by each below-nominal rung of the degradation ladder.
func (c *Controller) ContainmentCounts() (bestIterate, regularized, held int) {
	return c.bestIterates, c.regularized, c.heldSteps
}

// LastOutcome reports the degradation-ladder rung of the most recent step.
func (c *Controller) LastOutcome() SolveOutcome { return c.lastOutcome }

// AntiWindupSyncs reports how many per-task move-memory entries had to be
// reconciled because the achieved rate move diverged from the commanded
// one (actuator faults, external clamping).
func (c *Controller) AntiWindupSyncs() int { return c.windupSyncs }

// pre validates the input vectors and runs the anti-windup resync. It
// must run exactly once per sampling period, before any solve path reads
// c.prevDelta.
//
// Anti-windup: reconcile the move memory with the move the plant actually
// achieved, rates(k−1) → rates(k). When actuation is healthy the achieved
// move is bit-identical to the commanded Δr(k−1) (both are the same
// subtraction of the same floats), so this is a no-op; when an actuator
// fault dropped, delayed, or clamped the command, the control penalty
// would otherwise keep referencing a move that never happened and the
// internal model would drift while the actuator is stuck.
//
//eucon:noalloc
func (c *Controller) pre(u, rates []float64) error {
	if len(u) != c.n {
		return fmt.Errorf("mpc: utilization vector has length %d, want %d", len(u), c.n) //eucon:alloc-ok error path only; the hot path never formats
	}
	if len(rates) != c.m {
		return fmt.Errorf("mpc: rate vector has length %d, want %d", len(rates), c.m) //eucon:alloc-ok error path only; the hot path never formats
	}
	if c.haveLast {
		for i := 0; i < c.m; i++ {
			achieved := rates[i] - c.lastRates[i]
			if achieved != c.prevDelta[i] { //eucon:float-exact healthy actuation reproduces the exact commanded bits; any difference is a real divergence
				c.windupSyncs++
			}
			c.prevDelta[i] = achieved
		}
	}
	copy(c.lastRates, rates)
	c.haveLast = true
	return nil
}

// stepSolve is everything in a step after validation and anti-windup: the
// iterative solve and the degradation ladder, writing into out (whose
// slices sizeStepResult has sized). It never fails — every numerical
// outcome maps to a ladder rung. StepTo falls back to it off the interior
// fast path, and tests use pre + stepSolve as the reference that the fast
// path must reproduce bit for bit.
//
//eucon:noalloc
func (c *Controller) stepSolve(out *StepResult, u, rates []float64) {
	for _, v := range u {
		if !finite(v) {
			// A NaN/Inf measurement reached the solver layer (the EUCON
			// controller's hold-last policy normally substitutes upstream):
			// no trustworthy solve is possible, so hold the applied rates.
			c.holdStep(out, u, rates)
			return
		}
	}
	c.fillLeastSquaresRHS(u, c.dbuf)
	c.fillConstraintRHS(u, rates, true, c.bFull)

	// Pick a feasible starting point analytically instead of relying on the
	// solver's generic (and expensive) phase-1. Δr = 0 is feasible unless a
	// processor is over its set point; in that case "all rates to R_min" is
	// the most aggressive recovery available — F is non-negative, so if even
	// that violates the output constraints, the constraint set is infeasible
	// and the hard utilization constraints must be relaxed for this period.
	relaxed := false
	a, b := c.aFull, c.bFull
	z0 := c.z0
	for j := range z0 {
		z0[j] = 0
	}
	if maxViolation(a, b, z0) > 1e-9 {
		for j := 0; j < c.m; j++ {
			z0[j] = c.rmin[j] - rates[j]
		}
		if maxViolation(a, b, z0) > 1e-9 && !c.cfg.DisableOutputConstraints {
			relaxed = true
			a, b = c.aBox, c.bBox
			c.fillConstraintRHS(u, rates, false, b)
			for j := range z0 {
				z0[j] = 0
			}
		}
	}
	// The warm-start set indexes constraint rows, so it is only meaningful
	// while the constraint variant is unchanged.
	if relaxed != c.prevRelaxed {
		c.lsi.ResetWarmStart()
	}
	res, err := c.lsi.Solve(c.dbuf, a, b, z0)
	if err != nil && !relaxed && !c.cfg.DisableOutputConstraints && errors.Is(err, qp.ErrInfeasible) { //eucon:alloc-ok errors.Is walks the wrap chain without allocating; reached only when the solve failed
		// Belt and braces: fall back to the always-feasible rate box.
		relaxed = true
		a, b = c.aBox, c.bBox
		c.fillConstraintRHS(u, rates, false, b)
		for j := range z0 {
			z0[j] = 0
		}
		c.lsi.ResetWarmStart()
		res, err = c.lsi.Solve(c.dbuf, a, b, z0)
	}
	c.prevRelaxed = relaxed
	outcome := SolveOK
	if relaxed {
		outcome = SolveRelaxed
	}
	if err != nil {
		// Degradation ladder, rung by rung. Rung 1: an iteration-capped
		// solve still carries its best iterate, which is feasible by
		// construction (the active-set method never leaves the feasible
		// region); accept it when it is finite and nearly stationary.
		// An iteration-capped Result is exactly the one that travels with
		// qp.ErrMaxIterations; every other failure returns no Result.
		accepted := false
		if res != nil && res.Status == qp.StatusIterationCapped &&
			res.Stationarity <= bestIterateResidualBound && finiteVec(res.X) {
			outcome = SolveBestIterate
			c.bestIterates++
			accepted = true
		}
		// Rung 2: Tikhonov-regularized re-solve against the always-feasible
		// rate box, biasing the move toward Δr = 0.
		if !accepted && c.lsiReg != nil {
			copy(c.dregBuf, c.dbuf)
			for i := len(c.dbuf); i < len(c.dregBuf); i++ {
				c.dregBuf[i] = 0
			}
			c.fillConstraintRHS(u, rates, false, c.bBox)
			for j := range z0 {
				z0[j] = 0
			}
			regRes, regErr := c.lsiReg.Solve(c.dregBuf, c.aBox, c.bBox, z0)
			usable := regRes != nil && finiteVec(regRes.X) &&
				(regErr == nil || (regRes.Status == qp.StatusIterationCapped && regRes.Stationarity <= bestIterateResidualBound))
			if usable {
				res = regRes
				outcome = SolveRegularized
				c.regularized++
				accepted = true
				// The nominal solver's remembered active set describes a
				// solve that failed; start the next period clean.
				c.lsi.ResetWarmStart()
				c.prevRelaxed = false
			}
		}
		// Rung 3: hold the applied rates.
		if !accepted {
			c.holdStep(out, u, rates)
			return
		}
	}

	delta := out.DeltaR
	copy(delta, res.X[:c.m])
	if !finiteVec(delta) {
		// Belt and braces: a converged solve can still carry non-finite
		// values if the inputs were poisoned. Holding is the only safe move.
		c.holdStep(out, u, rates)
		return
	}
	newRates := out.NewRates
	for i := range newRates {
		nr := rates[i] + delta[i]
		// Guard against solver tolerance drift outside the box.
		nr = math.Max(c.rmin[i], math.Min(c.rmax[i], nr))
		newRates[i] = nr
		delta[i] = nr - rates[i]
	}
	copy(c.prevDelta, delta)
	c.lastOutcome = outcome
	c.predict(out.PredictedUtil, u, delta)
	out.OutputConstraintsRelaxed = relaxed || outcome == SolveRegularized
	out.SolverIterations = res.Iterations
	out.Outcome = outcome
}

// NewStepResult allocates a StepResult whose slices are sized for this
// controller, for use as the reusable destination of StepTo.
func (c *Controller) NewStepResult() *StepResult {
	return &StepResult{
		DeltaR:        make([]float64, c.m),
		NewRates:      make([]float64, c.m),
		PredictedUtil: make([]float64, c.n),
	}
}

// StepTo computes the control input for the next sampling period from the
// measured utilizations u(k) and the currently applied rates r(k−1), writing
// into a caller-owned, reusable StepResult (allocate it once with
// NewStepResult). out's slices are overwritten, never retained; rates must
// not alias them.
//
// StepTo contains every numerical failure of the underlying QP solve through
// a staged degradation ladder (see SolveOutcome) and never lets one escape:
// the returned error is non-nil only for caller bugs (wrong vector
// lengths), and out.NewRates is always finite and inside the rate box. A
// non-finite measurement vector short-circuits to the hold rung — steering
// the plant on NaN would poison the move memory.
//
// In the steady state — strictly feasible measurements, no rate bound or
// output constraint active — the move resolves through the zero-allocation
// interior fast path, which reproduces the iterative solve's arithmetic bit
// for bit (the qp.LSI.SolveInteriorTo guards are exactly the conditions
// under which the iterative solve completes in one unblocked Newton step
// from Δr = 0). Off the fast path, StepTo runs the full solve-plus-ladder,
// writing into out as well. Once the first constrained solve has sized the
// solver's workspace, neither path allocates.
//
//eucon:noalloc
func (c *Controller) StepTo(out *StepResult, u, rates []float64) error {
	if err := c.pre(u, rates); err != nil {
		return err
	}
	c.sizeStepResult(out)
	if c.stepInteriorTo(out, u, rates) {
		return nil
	}
	c.stepSolve(out, u, rates)
	return nil
}

// sizeStepResult reslices out's vectors to the controller's dimensions,
// growing them only when the caller under-provisioned their capacity
// (NewStepResult never does).
//
//eucon:noalloc
func (c *Controller) sizeStepResult(out *StepResult) {
	if cap(out.DeltaR) < c.m {
		out.DeltaR = make([]float64, c.m) //eucon:alloc-ok grows only when the caller under-provisions capacity
	}
	if cap(out.NewRates) < c.m {
		out.NewRates = make([]float64, c.m) //eucon:alloc-ok grows only when the caller under-provisions capacity
	}
	if cap(out.PredictedUtil) < c.n {
		out.PredictedUtil = make([]float64, c.n) //eucon:alloc-ok grows only when the caller under-provisions capacity
	}
	out.DeltaR = out.DeltaR[:c.m]
	out.NewRates = out.NewRates[:c.m]
	out.PredictedUtil = out.PredictedUtil[:c.n]
}

// predict writes the one-step utilization prediction u + F·delta into
// pred.
//
//eucon:noalloc
func (c *Controller) predict(pred, u, delta []float64) {
	c.f.MulVecTo(pred, delta)
	for i := range pred {
		pred[i] = u[i] + pred[i]
	}
}

// stepInteriorTo attempts the interior fast path for StepTo. It reports
// false (receiver untouched beyond scratch, right-hand sides refilled by
// the caller's fallback) whenever any behavior other than the plain
// unconstrained-interior solve could apply: non-finite measurements, an
// active constraint, or an undersized destination.
//
//eucon:noalloc
func (c *Controller) stepInteriorTo(out *StepResult, u, rates []float64) bool {
	for _, v := range u {
		if !finite(v) {
			return false
		}
	}
	c.fillLeastSquaresRHS(u, c.dbuf)
	c.fillConstraintRHS(u, rates, true, c.bFull)
	iters, ok := c.lsi.SolveInteriorTo(c.fastX, c.dbuf, c.aFull, c.bFull)
	if !ok {
		return false
	}
	delta := out.DeltaR
	newRates := out.NewRates
	copy(delta, c.fastX[:c.m])
	if !finiteVec(delta) {
		return false
	}
	for i := range newRates {
		nr := rates[i] + delta[i]
		// Guard against solver tolerance drift outside the box.
		nr = math.Max(c.rmin[i], math.Min(c.rmax[i], nr))
		newRates[i] = nr
		delta[i] = nr - rates[i]
	}
	copy(c.prevDelta, delta)
	c.predict(out.PredictedUtil, u, delta)
	// State the full path would leave behind: a non-relaxed converged solve
	// with an empty active set (SolveInteriorTo already cleared the
	// warm-start set, matching Solve's empty Result.Active).
	c.prevRelaxed = false
	c.lastOutcome = SolveOK
	out.OutputConstraintsRelaxed = false
	out.SolverIterations = iters
	out.Outcome = SolveOK
	return true
}

// holdStep is the bottom rung of the degradation ladder: command Δr = 0,
// keeping the last-applied rates (clipped to the box so even an
// out-of-range caller vector cannot escape). The zeroed move memory is
// reconciled against the achieved move by the anti-windup resync at the
// next step, exactly as for an actuator fault, so holding accumulates no
// windup. It writes into out, whose slices sizeStepResult has sized.
//
//eucon:noalloc
func (c *Controller) holdStep(out *StepResult, u, rates []float64) {
	c.heldSteps++
	c.lastOutcome = SolveHeld
	delta := out.DeltaR
	newRates := out.NewRates
	for i := range newRates {
		nr := rates[i]
		if !finite(nr) {
			// Never emit non-finite rates, whatever the caller handed us:
			// fall back to the most conservative end of the box.
			nr = c.rmin[i]
		}
		nr = math.Max(c.rmin[i], math.Min(c.rmax[i], nr))
		newRates[i] = nr
		delta[i] = 0
	}
	for i := range c.prevDelta {
		c.prevDelta[i] = 0
	}
	// The remembered active set belongs to a solve that never completed;
	// clear it so the next period starts from a clean working set.
	c.lsi.ResetWarmStart()
	c.prevRelaxed = false
	c.predict(out.PredictedUtil, u, delta)
	out.OutputConstraintsRelaxed = false
	out.SolverIterations = 0
	out.Outcome = SolveHeld
}

// finite reports whether v is neither NaN nor infinite.
//
//eucon:noalloc
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteVec reports whether every element of v is finite.
//
//eucon:noalloc
func finiteVec(v []float64) bool {
	for _, x := range v {
		if !finite(x) {
			return false
		}
	}
	return true
}

// maxViolation returns the largest constraint violation of A·z ≤ b at z.
func maxViolation(a *mat.Dense, b, z []float64) float64 {
	var v float64
	for i := 0; i < a.Rows(); i++ {
		if d := mat.Dot(a.RowView(i), z) - b[i]; d > v {
			v = d
		}
	}
	return v
}

// buildLeastSquaresMatrix assembles the constant stack C such that the MPC
// cost (7) equals ‖C·z − d‖² for the stacked move vector
// z = [Δr(k|k); …; Δr(k+M−1|k)]. C depends only on F, the weights, and the
// horizons, so it is built once at construction; the measurement-dependent
// d is refreshed per period by fillLeastSquaresRHS.
func (c *Controller) buildLeastSquaresMatrix() *mat.Dense {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	nz := c.m * mh
	rows := c.n*p + c.m*mh
	cm := mat.New(rows, nz)

	// Tracking blocks: √Q·F·S_i·z ≈ √Q·(ref(k+i|k) − u(k)) where S_i sums
	// the first min(i, M) moves.
	for i := 1; i <= p; i++ {
		rowBase := (i - 1) * c.n
		blocks := i
		if blocks > mh {
			blocks = mh
		}
		for r := 0; r < c.n; r++ {
			for blk := 0; blk < blocks; blk++ {
				for j := 0; j < c.m; j++ {
					cm.Set(rowBase+r, blk*c.m+j, c.sqrtQ[r]*c.f.At(r, j))
				}
			}
		}
	}
	// Control-change penalty blocks: √R·(z_i − z_{i−1}), with z_{−1} the
	// previously applied Δr(k−1).
	base := c.n * p
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			row := base + i*c.m + j
			cm.Set(row, i*c.m+j, c.sqrtR[j])
			if i > 0 {
				cm.Set(row, (i-1)*c.m+j, -c.sqrtR[j])
			}
		}
	}
	return cm
}

// fillLeastSquaresRHS refreshes d for the current measurements: the
// tracking targets ref − u = λ_i·(B − u) and the previous move in the
// control-penalty rows.
//
//eucon:noalloc
func (c *Controller) fillLeastSquaresRHS(u, d []float64) {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	for i := 1; i <= p; i++ {
		rowBase := (i - 1) * c.n
		for r := 0; r < c.n; r++ {
			d[rowBase+r] = c.sqrtQ[r] * c.lam[i] * (c.setPoints[r] - u[r])
		}
	}
	base := c.n * p
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			row := base + i*c.m + j
			if i == 0 {
				d[row] = c.sqrtR[j] * c.prevDelta[j]
			} else {
				d[row] = 0
			}
		}
	}
}

// buildConstraintMatrix assembles the constant A of A·z ≤ b: cumulative
// rate box constraints for every move, plus (when withOutput and not
// disabled) the predicted-utilization constraint rows u(k+i|k) ≤ B for
// i = 1..P. Only b depends on the measurements; fillConstraintRHS
// refreshes it per period.
func (c *Controller) buildConstraintMatrix(withOutput bool) *mat.Dense {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	nz := c.m * mh
	rows := 2 * c.m * mh
	outputRows := 0
	if withOutput && !c.cfg.DisableOutputConstraints {
		outputRows = c.n * p
	}
	a := mat.New(rows+outputRows, nz)

	// Rate box: for each horizon step i, r(k−1) + Σ_{j≤i} Δr_j ∈ [Rmin, Rmax].
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			up := 2 * (i*c.m + j)
			lo := up + 1
			for blk := 0; blk <= i; blk++ {
				a.Set(up, blk*c.m+j, 1)
				a.Set(lo, blk*c.m+j, -1)
			}
		}
	}
	if outputRows > 0 {
		base := rows
		for i := 1; i <= p; i++ {
			blocks := i
			if blocks > mh {
				blocks = mh
			}
			for r := 0; r < c.n; r++ {
				row := base + (i-1)*c.n + r
				for blk := 0; blk < blocks; blk++ {
					for j := 0; j < c.m; j++ {
						a.Set(row, blk*c.m+j, c.f.At(r, j))
					}
				}
			}
		}
	}
	return a
}

// fillConstraintRHS refreshes b for the current measurements and applied
// rates. withOutput must match the matrix the b slice belongs to.
//
//eucon:noalloc
func (c *Controller) fillConstraintRHS(u, rates []float64, withOutput bool, b []float64) {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			up := 2 * (i*c.m + j)
			b[up] = c.rmax[j] - rates[j]
			b[up+1] = rates[j] - c.rmin[j]
		}
	}
	if withOutput && !c.cfg.DisableOutputConstraints {
		base := 2 * c.m * mh
		for i := 1; i <= p; i++ {
			for r := 0; r < c.n; r++ {
				b[base+(i-1)*c.n+r] = c.setPoints[r] - u[r]
			}
		}
	}
}

// Gains returns the unconstrained feedback gain matrices (K_e, K_d) of the
// controller: when no constraint is active, the applied move is
//
//	Δr(k) = K_e·(B − u(k)) + K_d·Δr(k−1).
//
// These matrices drive the closed-loop stability analysis of paper §6.2.
func (c *Controller) Gains() (ke, kd *mat.Dense, err error) {
	ke = mat.New(c.m, c.n)
	kd = mat.New(c.m, c.m)
	if err := c.GainsTo(ke, kd); err != nil {
		return nil, nil, err
	}
	return ke, kd, nil
}

// GainsTo computes the unconstrained feedback gain matrices into the
// caller-provided ke (m×n) and kd (m×m): the allocation-free variant of
// Gains for callers that evaluate the gains repeatedly (stability
// bisection sweeps). The QR factorization of the least-squares stack is
// constant after construction, so the first call computes and caches it;
// subsequent calls only write the caller's matrices. Results are
// bit-identical to Gains.
func (c *Controller) GainsTo(ke, kd *mat.Dense) error {
	if r, cc := ke.Dims(); r != c.m || cc != c.n {
		return fmt.Errorf("mpc: ke is %dx%d, want %dx%d", r, cc, c.m, c.n)
	}
	if r, cc := kd.Dims(); r != c.m || cc != c.m {
		return fmt.Errorf("mpc: kd is %dx%d, want %dx%d", r, cc, c.m, c.m)
	}
	// The least-squares stack is C·z = d with d linear in e = B − u(k) and
	// in Δr(k−1). Solve for each basis vector of e and of Δr(k−1).
	if c.gainFac == nil {
		fac, err := mat.FactorQR(c.cmat)
		if err != nil {
			return fmt.Errorf("mpc: factor gain system: %w", err)
		}
		c.gainFac = fac
		c.gainD = make([]float64, c.cmat.Rows())
		c.gainY = make([]float64, c.cmat.Rows())
		c.gainZ = make([]float64, c.cmat.Cols())
	}
	p := c.cfg.PredictionHorizon
	d, z := c.gainD, c.gainZ
	// Basis responses for e.
	for col := 0; col < c.n; col++ {
		for i := range d {
			d[i] = 0
		}
		for i := 1; i <= p; i++ {
			d[(i-1)*c.n+col] = c.sqrtQ[col] * c.lam[i]
		}
		if err := c.gainFac.SolveLeastSquaresTo(z, c.gainY, d); err != nil {
			return fmt.Errorf("mpc: gain solve (e basis %d): %w", col, err)
		}
		for r := 0; r < c.m; r++ {
			ke.Set(r, col, z[r])
		}
	}
	// Basis responses for Δr(k−1).
	base := c.n * p
	for col := 0; col < c.m; col++ {
		for i := range d {
			d[i] = 0
		}
		d[base+col] = c.sqrtR[col]
		if err := c.gainFac.SolveLeastSquaresTo(z, c.gainY, d); err != nil {
			return fmt.Errorf("mpc: gain solve (Δr basis %d): %w", col, err)
		}
		for r := 0; r < c.m; r++ {
			kd.Set(r, col, z[r])
		}
	}
	return nil
}

// Structured reports whether the nominal solver's cached Hessian
// factorization uses the banded (structure-exploiting) backend, and its
// half bandwidth (0 when dense). Small or unstructured problems report
// false; the LARGE workloads' block-banded allocation matrices report
// true.
func (c *Controller) Structured() (banded bool, bandwidth int) { return c.lsi.Structured() }
