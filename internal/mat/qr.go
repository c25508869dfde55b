package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q orthogonal (stored implicitly as Householder vectors) and R
// upper triangular. Storage follows the LINPACK convention, column-major:
// column k holds R's strict upper part above the diagonal and the
// Householder vector v_k at and below it, and rdiag holds R's diagonal.
//
// Column k of the factorization depends only on columns 0…k of A, so a
// factorization can grow a column at a time (AppendColumn) and shrink to
// any prefix (Truncate) while staying exactly the factorization FactorQR
// would compute from scratch for the same columns. The zero value is an
// empty factorization; Reset sizes it for a row count.
type QR struct {
	m, n  int       // rows, factored columns
	v     []float64 // column-major factor, column k at v[k*m:(k+1)*m]
	rdiag []float64
}

// FactorQR computes the QR factorization of a. It requires rows ≥ cols.
func FactorQR(a *Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: FactorQR requires rows >= cols, got %dx%d", m, n)
	}
	f := &QR{m: m, v: make([]float64, m*n), rdiag: make([]float64, n)}
	for k := 0; k < n; k++ {
		col := f.v[k*m : (k+1)*m]
		for i := range col {
			col[i] = a.data[i*n+k]
		}
		f.factorColumn(k)
		f.n = k + 1
	}
	return f, nil
}

// Reset empties the factorization and sets its row count. The storage is
// sized for the most columns a factorization can have (as many as rows),
// so appends never allocate; it is kept from earlier factorizations when
// large enough.
//
//eucon:noalloc
func (f *QR) Reset(rows int) {
	f.m, f.n = rows, 0
	if cap(f.v) < rows*rows {
		f.v = make([]float64, rows*rows) //eucon:alloc-ok grows only past the largest row count seen so far
	}
	if cap(f.rdiag) < rows {
		f.rdiag = make([]float64, rows) //eucon:alloc-ok grows only past the largest row count seen so far
	}
	f.v = f.v[:rows*rows]
	f.rdiag = f.rdiag[:rows]
}

// Cols returns the number of factored columns.
//
//eucon:noalloc
func (f *QR) Cols() int { return f.n }

// Truncate drops the factored columns k and beyond. The leading k columns
// stay exactly the factorization of A's first k columns.
//
//eucon:noalloc
func (f *QR) Truncate(k int) {
	if k < f.n {
		f.n = max(k, 0)
	}
}

// AppendColumn appends col (length Rows) as the next column of A and
// factors it: the reflectors of the existing columns are applied to it in
// order, then its own reflector is formed. That is O(rows·cols) work, and
// the same operations FactorQR performs on that column. It panics when the
// factorization already has as many columns as rows.
//
//eucon:noalloc
func (f *QR) AppendColumn(col []float64) {
	m, k := f.m, f.n
	if len(col) != m || k >= m {
		panic(fmt.Sprintf("mat: AppendColumn of a %d-vector to a %dx%d factorization", len(col), m, k)) //eucon:alloc-ok panic path only; the hot path never formats
	}
	copy(f.v[k*m:(k+1)*m], col)
	f.factorColumn(k)
	f.n = k + 1
}

// factorColumn is the one Householder kernel: it applies reflectors 0…k−1
// to column k (already loaded with A's column k) and forms reflector k.
//
//eucon:noalloc
func (f *QR) factorColumn(k int) {
	m := f.m
	col := f.v[k*m : (k+1)*m]
	for r := 0; r < k; r++ {
		if IsZero(f.rdiag[r]) {
			continue // a zero column produced no reflector
		}
		vr := f.v[r*m : (r+1)*m]
		var s float64
		for i := r; i < m; i++ {
			s += vr[i] * col[i]
		}
		s = -s / vr[r]
		for i := r; i < m; i++ {
			col[i] = col[i] + s*vr[i]
		}
	}
	var norm float64
	for i := k; i < m; i++ {
		norm = math.Hypot(norm, col[i])
	}
	if IsZero(norm) {
		f.rdiag[k] = 0
		return
	}
	if col[k] < 0 {
		norm = -norm
	}
	for i := k; i < m; i++ {
		col[i] = col[i] / norm
	}
	col[k] = col[k] + 1
	f.rdiag[k] = -norm
}

// SolveLeastSquares returns argmin‖Ax − b‖₂ via the factorization. It
// returns ErrSingular when R is rank-deficient to working precision.
func (f *QR) SolveLeastSquares(b []float64) ([]float64, error) {
	if len(b) != f.m {
		return nil, fmt.Errorf("mat: QR solve length mismatch: %d vs %d", len(b), f.m)
	}
	x := make([]float64, f.n)
	if col := f.solve(x, make([]float64, f.m), b); col >= 0 {
		return nil, fmt.Errorf("least-squares back-substitution at column %d: %w", col, ErrSingular)
	}
	return x, nil
}

// SolveLeastSquaresTo computes argmin‖Ax − b‖₂ into x (length cols) using
// scratch (length rows) for the Qᵀ·b product: the allocation-free variant
// of SolveLeastSquares for loops that re-solve against one factorization.
// The arithmetic is identical to SolveLeastSquares, so both produce
// bit-identical solutions. A rank-deficient R yields the bare ErrSingular,
// so the singular case does not allocate either.
//
//eucon:noalloc
func (f *QR) SolveLeastSquaresTo(x, scratch, b []float64) error {
	m, n := f.m, f.n
	if len(b) != m || len(scratch) != m {
		return fmt.Errorf("mat: QR solve length mismatch: %d/%d vs %d", len(b), len(scratch), m) //eucon:alloc-ok error path
	}
	if len(x) != n {
		return fmt.Errorf("mat: QR solution length mismatch: %d vs %d", len(x), n) //eucon:alloc-ok error path
	}
	if f.solve(x, scratch, b) >= 0 {
		return ErrSingular
	}
	return nil
}

// solve is the least-squares kernel behind both solve methods. It returns
// the column at which back-substitution met a negligible diagonal, or −1.
//
//eucon:noalloc
func (f *QR) solve(x, y, b []float64) int {
	m, n := f.m, f.n
	copy(y, b)
	// Apply Qᵀ to b by applying each Householder reflector in order.
	for k := 0; k < n; k++ {
		vk := f.v[k*m : (k+1)*m]
		if IsZero(f.rdiag[k]) || IsZero(vk[k]) {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += vk[i] * y[i]
		}
		s = -s / vk[k]
		for i := k; i < m; i++ {
			y[i] += s * vk[i]
		}
	}
	// Back-substitute R·x = y[:n].
	scale := f.maxRDiag()
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.v[j*m+i] * x[j]
		}
		d := f.rdiag[i]
		if math.Abs(d) < 1e-13*scale || IsZero(d) {
			return i
		}
		x[i] = s / d
	}
	return -1
}

//eucon:noalloc
func (f *QR) maxRDiag() float64 {
	max := 1.0
	for _, v := range f.rdiag[:f.n] {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// LeastSquares solves argmin‖Ax − b‖₂ directly (factor + solve).
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.SolveLeastSquares(b)
}
