package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the allocating, accessor-based LU and QR
// implementations that the in-place kernels replaced. They are kept here
// so that every refactor of lu.go and qr.go is checked against them bit
// for bit: the MPC goldens depend on the exact rounding of these solves.

type refLU struct {
	lu    *Dense
	pivot []int
}

func refFactorLU(a *Dense) (*refLU, bool) {
	n := a.rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				p, max = i, v
			}
		}
		if max < 1e-300 {
			return nil, false
		}
		if p != k {
			swapRows(lu, p, k)
			pivot[p], pivot[k] = pivot[k], pivot[p]
		}
		pkk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pkk
			lu.Set(i, k, m)
			if IsZero(m) {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &refLU{lu: lu, pivot: pivot}, true
}

func (f *refLU) solveVec(b []float64) ([]float64, bool) {
	n := f.lu.rows
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, false
		}
		x[i] = (x[i] - s) / d
	}
	return x, true
}

func refLeastSquares(a *Dense, b []float64) ([]float64, bool) {
	m, n := a.Dims()
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if IsZero(norm) {
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -norm
	}
	y := VecClone(b)
	for k := 0; k < n; k++ {
		vk := qr.At(k, k)
		if IsZero(rdiag[k]) || IsZero(vk) {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += qr.At(i, k) * y[i]
		}
		s = -s / vk
		for i := k; i < m; i++ {
			y[i] += s * qr.At(i, k)
		}
	}
	scale := 1.0
	for _, v := range rdiag {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= qr.At(i, j) * x[j]
		}
		d := rdiag[i]
		if math.Abs(d) < 1e-13*scale || IsZero(d) {
			return nil, false
		}
		x[i] = s / d
	}
	return x, true
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// degenerateDense draws an r×c matrix that is, by turns, generic, has
// zero or repeated columns, or has a rank-deficient block, so the singular
// branches of both kernels are exercised.
func degenerateDense(rng *rand.Rand, r, c int) *Dense {
	a := randomDense(rng, r, c)
	switch rng.Intn(4) {
	case 1:
		j := rng.Intn(c)
		for i := 0; i < r; i++ {
			a.Set(i, j, 0)
		}
	case 2:
		if c > 1 {
			j, k := rng.Intn(c), rng.Intn(c)
			for i := 0; i < r; i++ {
				a.Set(i, k, 2*a.At(i, j))
			}
		}
	case 3:
		if r > 1 {
			for j := 0; j < c; j++ {
				a.Set(r-1, j, a.At(0, j))
			}
		}
	}
	return a
}

func TestLUKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reused LU
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(9)
		a := degenerateDense(rng, n, n)
		b := randomVec(rng, n)
		ref, refOK := refFactorLU(a)
		f, err := FactorLU(a)
		if (err == nil) != refOK {
			t.Fatalf("trial %d: FactorLU err = %v, reference ok = %v", trial, err, refOK)
		}
		copy(reused.Reset(n).data, a.data)
		inPlaceErr := reused.Factor()
		if (inPlaceErr == nil) != refOK {
			t.Fatalf("trial %d: Reset+Factor err = %v, reference ok = %v", trial, inPlaceErr, refOK)
		}
		if !refOK {
			continue
		}
		want, wantOK := ref.solveVec(b)
		got, gotErr := f.SolveVec(b)
		dst := make([]float64, n)
		toErr := reused.SolveVecTo(dst, b)
		if (gotErr == nil) != wantOK || (toErr == nil) != wantOK {
			t.Fatalf("trial %d: solve errors %v/%v, reference ok = %v", trial, gotErr, toErr, wantOK)
		}
		if wantOK && (!bitsEqual(got, want) || !bitsEqual(dst, want)) {
			t.Fatalf("trial %d: LU solutions differ from the reference:\n got  %v\n into %v\n want %v", trial, got, dst, want)
		}
	}
}

func TestQRKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(9)
		n := 1 + rng.Intn(m)
		a := degenerateDense(rng, m, n)
		b := randomVec(rng, m)
		want, wantOK := refLeastSquares(a, b)
		got, err := LeastSquares(a, b)
		if (err == nil) != wantOK {
			t.Fatalf("trial %d: LeastSquares err = %v, reference ok = %v", trial, err, wantOK)
		}
		if wantOK && !bitsEqual(got, want) {
			t.Fatalf("trial %d: LeastSquares = %v, reference %v", trial, got, want)
		}
	}
}

// TestQRAppendTruncateMatchesFromScratch drives one QR through random
// column appends and prefix truncations and checks, after every step, that
// solving against it is bitwise what a from-scratch factorization of the
// same columns gives.
func TestQRAppendTruncateMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var f QR
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(8)
		pool := degenerateDense(rng, m, 2*m)
		f.Reset(m)
		var cols []int
		for step := 0; step < 40; step++ {
			if len(cols) < m && (len(cols) == 0 || rng.Intn(3) > 0) {
				j := rng.Intn(2 * m)
				cols = append(cols, j)
				f.AppendColumn(pool.Col(j))
			} else {
				k := rng.Intn(len(cols) + 1)
				cols = cols[:k]
				f.Truncate(k)
			}
			if f.Cols() != len(cols) {
				t.Fatalf("trial %d step %d: Cols() = %d, want %d", trial, step, f.Cols(), len(cols))
			}
			a := New(m, len(cols))
			for c, j := range cols {
				for i := 0; i < m; i++ {
					a.Set(i, c, pool.At(i, j))
				}
			}
			b := randomVec(rng, m)
			want, wantOK := refLeastSquares(a, b)
			x := make([]float64, len(cols))
			err := f.SolveLeastSquaresTo(x, make([]float64, m), b)
			if (err == nil) != wantOK {
				t.Fatalf("trial %d step %d: err = %v, reference ok = %v", trial, step, err, wantOK)
			}
			if wantOK && !bitsEqual(x, want) {
				t.Fatalf("trial %d step %d: incremental solve %v, from scratch %v", trial, step, x, want)
			}
		}
	}
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
