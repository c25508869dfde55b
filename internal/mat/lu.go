package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
//
// The zero value is an empty factorization. Reset and Factor re-factor a
// sequence of systems in storage the LU owns, so a solver loop allocates
// nothing once the LU has seen its largest system. FactorLU and SolveVec
// are allocating wrappers over the same kernels, so every path produces
// bit-identical factors and solutions.
type LU struct {
	lu    Dense // packed L (unit lower) and U (upper)
	pivot []int // row permutation
	sign  int   // permutation parity: +1 or −1
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular when a pivot underflows working
// precision.
func FactorLU(a *Dense) (*LU, error) {
	if a.cols != a.rows {
		return nil, fmt.Errorf("mat: FactorLU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	f := &LU{}
	copy(f.Reset(a.rows).data, a.data)
	if k := f.factor(); k >= 0 {
		return nil, fmt.Errorf("factor LU at column %d: %w", k, ErrSingular)
	}
	return f, nil
}

// Reset readies f for an n×n system and returns the matrix to fill,
// zeroed; Factor then factors it in place. The matrix aliases f's storage,
// which is kept across calls and grows only past the largest n so far.
//
//eucon:noalloc
func (f *LU) Reset(n int) *Dense {
	f.lu.reuse(n, n)
	if cap(f.pivot) < n {
		f.pivot = make([]int, n) //eucon:alloc-ok grows only past the largest system factored so far
	}
	f.pivot = f.pivot[:n]
	return &f.lu
}

// Factor factors the matrix that Reset returned, in place. A pivot that
// underflows working precision yields the bare ErrSingular, so a caller
// that retries on singular systems never formats an error.
//
//eucon:noalloc
func (f *LU) Factor() error {
	if f.factor() >= 0 {
		return ErrSingular
	}
	return nil
}

// factor is the one LU kernel: it factors f.lu in place and returns the
// column whose pivot underflowed, or −1.
//
//eucon:noalloc
func (f *LU) factor() int {
	lu := &f.lu
	n := lu.rows
	pivot := f.pivot
	f.sign = 1
	for i := range pivot {
		pivot[i] = i
	}
	d := lu.data
	for k := 0; k < n; k++ {
		// Find pivot row.
		p, max := k, math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max < 1e-300 {
			return k
		}
		if p != k {
			swapRows(lu, p, k)
			pivot[p], pivot[k] = pivot[k], pivot[p]
			f.sign = -f.sign
		}
		rowK := d[k*n : (k+1)*n]
		pkk := rowK[k]
		for i := k + 1; i < n; i++ {
			rowI := d[i*n : (i+1)*n]
			m := rowI[k] / pkk
			rowI[k] = m
			if IsZero(m) {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] = rowI[j] - m*rowK[j]
			}
		}
	}
	return -1
}

//eucon:noalloc
func swapRows(m *Dense, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SolveVec solves A·x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := f.SolveVecTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecTo solves A·x = b into dst without allocating. dst must not
// alias b. A zero diagonal in U yields the bare ErrSingular.
//
//eucon:noalloc
func (f *LU) SolveVecTo(dst, b []float64) error {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("mat: LU solve length mismatch: %d/%d vs %d", len(dst), len(b), n) //eucon:alloc-ok error path only; the hot path never formats
	}
	x := dst
	d := f.lu.data
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := d[i*n : i*n+i]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := d[i*n : (i+1)*n]
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		u := row[i]
		if math.Abs(u) < 1e-300 {
			return ErrSingular
		}
		x[i] = (x[i] - s) / u
	}
	return nil
}

// Solve solves A·X = B for a matrix right-hand side.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, fmt.Errorf("mat: LU solve row mismatch: %d vs %d", b.rows, n)
	}
	out := New(n, b.cols)
	for j := 0; j < b.cols; j++ {
		col, err := f.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		for i, v := range col {
			out.Set(i, j, v)
		}
	}
	return out, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveVec solves A·x = b directly (factor + solve).
func SolveVec(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// Inverse returns A⁻¹, or ErrSingular.
func Inverse(a *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows))
}

// Det returns the determinant of a square matrix (0 when singular).
func Det(a *Dense) float64 {
	f, err := FactorLU(a)
	if err != nil {
		return 0
	}
	return f.Det()
}
