package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
)

// randomConstraints draws an m×n constraint system whose rows mix generic
// directions with the degenerate shapes the active-set loop must survive:
// duplicates, scaled copies, sums of two earlier rows, zero rows, and rows
// scaled to ~1e-155, whose Schur entries underflow the LU pivot threshold
// and force the singular-KKT truncation. About half the rows are made
// active at xa (b_i = a_i·xa); the rest get positive slack.
func randomConstraints(rng *rand.Rand, m, n int, xa []float64) (*mat.Dense, []float64) {
	a := mat.New(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.RowView(i)
		switch k := rng.Intn(12); {
		case k == 0 && i > 0:
			copy(row, a.RowView(rng.Intn(i)))
		case k == 1 && i > 0:
			src, s := a.RowView(rng.Intn(i)), 0.5+rng.Float64()
			for j := range row {
				row[j] = s * src[j]
			}
		case k == 2 && i > 1:
			r1, r2 := a.RowView(rng.Intn(i)), a.RowView(rng.Intn(i))
			for j := range row {
				row[j] = r1[j] + r2[j]
			}
		case k == 3:
			// zero row
		case k == 4:
			for j := range row {
				row[j] = 1e-155 * rng.NormFloat64()
			}
		default:
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
		b[i] = mat.Dot(row, xa)
		if rng.Intn(2) == 0 {
			b[i] += 0.05 + rng.Float64()
		}
	}
	return a, b
}

// sameResult fails the test unless got and want agree bit for bit on
// every reported field, and the errors carry the same sentinel.
func sameResult(t *testing.T, label string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	for _, sentinel := range []error{ErrInfeasible, ErrMaxIterations, ErrSingular} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			t.Fatalf("%s: err = %v, reference err = %v", label, gotErr, wantErr)
		}
	}
	if (gotErr == nil) != (wantErr == nil) || (got == nil) != (want == nil) {
		t.Fatalf("%s: (result, err) = (%v, %v), reference (%v, %v)", label, got != nil, gotErr, want != nil, wantErr)
	}
	if got == nil {
		return
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: len(X) = %d, reference %d", label, len(got.X), len(want.X))
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %v, reference %v (X %v vs %v)", label, i, got.X[i], want.X[i], got.X, want.X)
		}
	}
	if len(got.Active) != len(want.Active) {
		t.Fatalf("%s: Active = %v, reference %v", label, got.Active, want.Active)
	}
	for i := range got.Active {
		if got.Active[i] != want.Active[i] {
			t.Fatalf("%s: Active = %v, reference %v", label, got.Active, want.Active)
		}
	}
	if got.Iterations != want.Iterations || got.Status != want.Status {
		t.Fatalf("%s: Iterations/Status = %d/%v, reference %d/%v", label, got.Iterations, got.Status, want.Iterations, want.Status)
	}
	if math.Float64bits(got.Stationarity) != math.Float64bits(want.Stationarity) {
		t.Fatalf("%s: Stationarity = %v, reference %v", label, got.Stationarity, want.Stationarity)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: Objective = %v, reference %v", label, got.Objective, want.Objective)
	}
}

// TestLSIMatchesFromScratchReferenceBitwise runs seeded random problem
// sequences through one reused LSI and through the from-scratch reference
// solver (reference_test.go) and requires bit-identical results. Each
// sequence alternates between two constraint matrices with different row
// counts on the same LSI, as the MPC controller switches between its full
// and box-only constraint sets, and carries the warm-start set from solve
// to solve (reset on some switches, kept on others: stale indices must be
// harmless). Starts are vertices with many active rows, so the seeded
// working set is large and the optimum is reached through mid-set drops.
func TestLSIMatchesFromScratchReferenceBitwise(t *testing.T) {
	refStats = refCounters{}
	rng := rand.New(rand.NewSource(1))
	solves := 0
	for seq := 0; seq < 120; seq++ {
		n := 2 + rng.Intn(9)
		rows := n + rng.Intn(2*n)
		c := mat.New(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				c.Set(i, j, rng.NormFloat64())
			}
		}
		opts := Options{}
		if rng.Intn(6) == 0 {
			opts.MaxIter = 1 + rng.Intn(4)
		}
		s, err := NewLSI(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		xa := make([]float64, n)
		for j := range xa {
			xa[j] = rng.NormFloat64()
		}
		aBig, bBig := randomConstraints(rng, n+rng.Intn(3*n), n, xa)
		aSmall, bSmall := randomConstraints(rng, 1+rng.Intn(n), n, xa)
		var refWarm []int
		for step := 0; step < 8; step++ {
			a, b := aBig, bBig
			if step%3 == 2 {
				a, b = aSmall, bSmall
				if rng.Intn(2) == 0 {
					s.ResetWarmStart()
					refWarm = refWarm[:0]
				}
			}
			d := make([]float64, rows)
			for i := range d {
				d[i] = 3 * rng.NormFloat64()
			}
			want, wantErr := refLSISolve(s, &refWarm, d, a, b, xa)
			got, gotErr := s.Solve(d, a, b, xa)
			sameResult(t, "LSI.Solve", got, gotErr, want, wantErr)
			solves++
		}
	}
	t.Logf("%d solves; reference paths: %+v", solves, refStats)
	for name, count := range map[string]int{
		"warm-start seeds": refStats.warmSeeds,
		"mid-set drops":    refStats.midDrops,
		"KKT truncations":  refStats.truncations,
		"dependent adds":   refStats.dependentAdds,
		"degenerate adds":  refStats.degenerateAdds,
		"iteration-capped": refStats.cappedSolves,
	} {
		if count == 0 {
			t.Errorf("the problem mix never exercised %s; the bit-identity check has no teeth there", name)
		}
	}
}

// TestSolveMatchesFromScratchReferenceBitwise checks the package-level
// Solve (a fresh workspace per call) against the reference on random
// strictly convex QPs from vertex starts.
func TestSolveMatchesFromScratchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		l := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				l.Set(i, j, rng.NormFloat64())
			}
		}
		h := l.T().Mul(l)
		for i := 0; i < n; i++ {
			h.Set(i, i, h.At(i, i)+0.1)
		}
		f := make([]float64, n)
		xa := make([]float64, n)
		for j := range f {
			f[j] = 4 * rng.NormFloat64()
			xa[j] = rng.NormFloat64()
		}
		a, b := randomConstraints(rng, 1+rng.Intn(3*n), n, xa)
		hchol, err := mat.FactorSPDDense(h)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := refSolveActiveSet(h, hchol, f, a, b, xa, Options{})
		got, gotErr := Solve(h, f, a, b, xa, Options{})
		sameResult(t, "Solve", got, gotErr, want, wantErr)
	}
}

// TestWorkspaceCachesTrackWorkingSet drives the workspace's working set
// directly through random pushes, mid-set drops and truncations, and after
// every change checks the two cached computations against the reference:
// the independence test (cached QR prefix) on rows that are, by turns,
// generic, combinations of the current working rows, or copies of
// dropped ones; and the KKT step and multipliers (cached H⁻¹·a_w and Schur
// entries). Inside a solve, line-search adds are independent by
// construction, so this is where a stale cache slot would show.
func TestWorkspaceCachesTrackWorkingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(8)
		m := 3 * n
		a := mat.New(m, n)
		for i := 0; i < m; i++ {
			row := a.RowView(i)
			if i >= n && rng.Intn(3) == 0 {
				// A combination of two earlier rows.
				r1, r2 := a.RowView(rng.Intn(i)), a.RowView(rng.Intn(i))
				for j := range row {
					row[j] = r1[j] - 0.5*r2[j]
				}
				continue
			}
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
		h := mat.Identity(n)
		for i := 0; i < n; i++ {
			h.Set(i, i, 1+rng.Float64())
		}
		hchol, err := mat.FactorSPDDense(h)
		if err != nil {
			t.Fatal(err)
		}
		g := make([]float64, n)
		var ws workspace
		ws.ensure(n, m)
		for step := 0; step < 60; step++ {
			k := len(ws.working)
			switch {
			case k > 0 && rng.Intn(3) == 0:
				ws.drop(rng.Intn(k))
			default:
				idx := rng.Intn(m)
				if ws.inWorking[idx] {
					continue
				}
				want := refAddIfIndependent(a, ws.working, idx)
				if k < n && ws.addIfIndependent(a, idx) != want {
					t.Fatalf("trial %d step %d: addIfIndependent(%d) with working %v disagrees with the reference (%v)", trial, step, idx, ws.working, want)
				}
				if want && k < n {
					ws.push(idx)
				}
			}
			for j := range g {
				g[j] = rng.NormFloat64()
			}
			wantP, wantL, wantErr := refSolveKKT(hchol, a, ws.working, g)
			p, l, err := ws.solveKKT(hchol, a, g)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d step %d: solveKKT err = %v, reference %v", trial, step, err, wantErr)
			}
			if err != nil {
				continue
			}
			for j := range p {
				if math.Float64bits(p[j]) != math.Float64bits(wantP[j]) {
					t.Fatalf("trial %d step %d: p = %v, reference %v", trial, step, p, wantP)
				}
			}
			for j := range l {
				if math.Float64bits(l[j]) != math.Float64bits(wantL[j]) {
					t.Fatalf("trial %d step %d: lambda = %v, reference %v", trial, step, l, wantL)
				}
			}
		}
	}
}
