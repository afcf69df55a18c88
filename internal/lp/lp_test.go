package lp

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }

// solvePolyStats solves one polynomial system with a fresh Solver — the
// one-shot usage pattern the old free functions wrapped.
func solvePolyStats(cons []Constraint, degree int) ([]*big.Rat, Stats, error) {
	s := NewSolver(Options{Degree: degree})
	s.AddConstraints(cons...)
	res, err := s.Resolve(context.Background())
	return res.Coeffs, res.Stats, err
}

func solvePoly(cons []Constraint, degree int) ([]*big.Rat, bool) {
	coeffs, _, err := solvePolyStats(cons, degree)
	return coeffs, err == nil
}

// solveStandardStats minimizes cost·z subject to A z = b, z >= 0, directly on
// the reference tableau: the polynomial formulation never produces an
// unbounded program, so the raw standard form is the only way to reach every
// verdict of the reference the Solver is tested against.
func solveStandardStats(a [][]*big.Rat, b []*big.Rat, cost []*big.Rat, maxPivots int) ([]*big.Rat, refStats, error) {
	if maxPivots <= 0 {
		maxPivots = DefaultMaxPivots
	}
	m, n := len(a), len(cost)
	st := refStats{Rows: m, Cols: n}
	tb := newRefTableau(m, n+m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			tb.rows[i][j].Set(a[i][j])
		}
		tb.rows[i][n+m].Set(b[i])
	}
	cost2 := make([]big.Rat, n)
	for j := 0; j < n; j++ {
		cost2[j].Set(cost[j])
	}
	if err := tb.twoPhase(cost2, maxPivots, &st); err != nil {
		return nil, st, err
	}
	z := make([]*big.Rat, n)
	for j := 0; j < n; j++ {
		z[j] = tb.solution(j)
	}
	return z, st, nil
}

func solveStandard(a [][]*big.Rat, b []*big.Rat, cost []*big.Rat) ([]*big.Rat, bool) {
	z, _, err := solveStandardStats(a, b, cost, 0)
	return z, err == nil
}

func TestSolveStandardBasic(t *testing.T) {
	// minimize x0 + x1 s.t. x0 + 2x1 = 4, x0, x1 >= 0 -> x = (0, 2), obj 2.
	a := [][]*big.Rat{{r(1, 1), r(2, 1)}}
	b := []*big.Rat{r(4, 1)}
	c := []*big.Rat{r(1, 1), r(1, 1)}
	z, ok := solveStandard(a, b, c)
	if !ok {
		t.Fatal("expected feasible")
	}
	if z[0].Sign() != 0 || z[1].Cmp(r(2, 1)) != 0 {
		t.Errorf("z = %v", z)
	}
}

func TestSolveStandardInfeasible(t *testing.T) {
	// x0 = -1 with x0 >= 0 is infeasible.
	a := [][]*big.Rat{{r(1, 1)}}
	b := []*big.Rat{r(-1, 1)}
	c := []*big.Rat{r(0, 1)}
	if _, ok := solveStandard(a, b, c); ok {
		t.Error("expected infeasible")
	}
}

func TestSolveStandardNegativeB(t *testing.T) {
	// -x0 = -3 -> x0 = 3 (row flip path).
	a := [][]*big.Rat{{r(-1, 1)}}
	b := []*big.Rat{r(-3, 1)}
	c := []*big.Rat{r(1, 1)}
	z, ok := solveStandard(a, b, c)
	if !ok || z[0].Cmp(r(3, 1)) != 0 {
		t.Errorf("z = %v, ok = %v", z, ok)
	}
}

func TestSolveStandardUnbounded(t *testing.T) {
	// minimize -x0 s.t. x0 - x1 = 0: x0 can grow without bound.
	a := [][]*big.Rat{{r(1, 1), r(-1, 1)}}
	b := []*big.Rat{r(0, 1)}
	c := []*big.Rat{r(-1, 1), r(0, 1)}
	if _, ok := solveStandard(a, b, c); ok {
		t.Error("expected unbounded to report not-ok")
	}
}

func TestSolvePolyInterpolation(t *testing.T) {
	// Singleton intervals force exact interpolation: P(i) = i^2 for
	// i = 0..2 with degree 2 must recover x^2.
	var cons []Constraint
	for i := int64(0); i <= 2; i++ {
		v := r(i*i, 1)
		cons = append(cons, Constraint{X: r(i, 1), Lo: v, Hi: v})
	}
	coeffs, ok := solvePoly(cons, 2)
	if !ok {
		t.Fatal("expected feasible")
	}
	want := []*big.Rat{r(0, 1), r(0, 1), r(1, 1)}
	for j, w := range want {
		if coeffs[j].Cmp(w) != 0 {
			t.Errorf("c[%d] = %s, want %s", j, coeffs[j].RatString(), w.RatString())
		}
	}
	if !CheckPoly(coeffs, cons) {
		t.Error("CheckPoly rejects its own solution")
	}
}

func TestSolvePolyInfeasible(t *testing.T) {
	// Same point with two disjoint singleton requirements.
	cons := []Constraint{
		{X: r(1, 1), Lo: r(0, 1), Hi: r(0, 1)},
		{X: r(1, 1), Lo: r(1, 1), Hi: r(1, 1)},
	}
	if _, ok := solvePoly(cons, 3); ok {
		t.Error("expected infeasible")
	}
	// A degree-1 polynomial cannot pass through three non-collinear points.
	cons = []Constraint{
		{X: r(0, 1), Lo: r(0, 1), Hi: r(0, 1)},
		{X: r(1, 1), Lo: r(1, 1), Hi: r(1, 1)},
		{X: r(2, 1), Lo: r(4, 1), Hi: r(4, 1)},
	}
	if _, ok := solvePoly(cons, 1); ok {
		t.Error("expected infeasible for non-collinear interpolation")
	}
}

// TestSolveCrossedConstraintInfeasible: a constraint with Lo > Hi is an
// empty interval, so Resolve reports ErrInfeasible — never the polynomial
// through the interval's midpoint that the margin rows alone would admit.
func TestSolveCrossedConstraintInfeasible(t *testing.T) {
	cons := []Constraint{
		{X: r(0, 1), Lo: r(0, 1), Hi: r(1, 1)},
		{X: r(1, 1), Lo: r(3, 1), Hi: r(2, 1)}, // crossed
		{X: r(2, 1), Lo: r(4, 1), Hi: r(5, 1)},
	}
	s := NewSolver(Options{Degree: 2})
	s.AddConstraints(cons...)
	res, err := s.Resolve(context.Background())
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Resolve = %v, %v; want ErrInfeasible", res.Coeffs, err)
	}
	// Uncrossing the interval makes the system feasible again.
	cons[1].Lo, cons[1].Hi = r(2, 1), r(3, 1)
	if _, err := NewSolver(Options{Degree: 2}).Solve(context.Background(), cons); err != nil {
		t.Fatalf("uncrossed system: %v", err)
	}
}

// TestSolvePolyRecoversRandomPoly: build intervals around a known
// polynomial's values; the solver must return a polynomial satisfying all
// of them (property-style randomized test).
func TestSolvePolyRecoversRandomPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		deg := 1 + rng.Intn(5)
		truth := make([]*big.Rat, deg+1)
		for j := range truth {
			truth[j] = big.NewRat(int64(rng.Intn(2001)-1000), 64)
		}
		var cons []Constraint
		for i := 0; i < 8+rng.Intn(20); i++ {
			x := big.NewRat(int64(rng.Intn(513)-256), 2048)
			v := EvalRat(truth, x)
			eps := big.NewRat(1, int64(1+rng.Intn(1<<20)))
			cons = append(cons, Constraint{
				X:  x,
				Lo: new(big.Rat).Sub(v, eps),
				Hi: new(big.Rat).Add(v, eps),
			})
		}
		coeffs, ok := solvePoly(cons, deg)
		if !ok {
			t.Fatalf("trial %d: expected feasible (truth exists)", trial)
		}
		if !CheckPoly(coeffs, cons) {
			t.Fatalf("trial %d: solution violates constraints", trial)
		}
	}
}

// TestSolvePolyMarginCentering: with a fat interval, the margin objective
// pushes the polynomial to the interval center.
func TestSolvePolyMarginCentering(t *testing.T) {
	cons := []Constraint{{X: r(0, 1), Lo: r(0, 1), Hi: r(2, 1)}}
	coeffs, ok := solvePoly(cons, 0)
	if !ok {
		t.Fatal("expected feasible")
	}
	if coeffs[0].Cmp(r(1, 1)) != 0 {
		t.Errorf("margin objective should center: c0 = %s, want 1", coeffs[0].RatString())
	}
}

// TestSolvePolyMixedSingletonAndWide: singleton constraints pin the margin
// at zero yet remain solvable.
func TestSolvePolyMixedSingletonAndWide(t *testing.T) {
	cons := []Constraint{
		{X: r(0, 1), Lo: r(1, 1), Hi: r(1, 1)},   // P(0) = 1 exactly
		{X: r(1, 1), Lo: r(2, 1), Hi: r(4, 1)},   // P(1) in [2,4]
		{X: r(-1, 1), Lo: r(-1, 1), Hi: r(1, 2)}, // P(-1) in [-1,1/2]
	}
	coeffs, ok := solvePoly(cons, 2)
	if !ok {
		t.Fatal("expected feasible")
	}
	if !CheckPoly(coeffs, cons) {
		t.Error("solution violates constraints")
	}
	if coeffs[0].Cmp(r(1, 1)) != 0 {
		t.Errorf("P(0) = %s, want exactly 1", coeffs[0].RatString())
	}
}

func TestEvalRat(t *testing.T) {
	// 1 + 2x + 3x^2 at x = 1/2 -> 1 + 1 + 3/4 = 11/4.
	coeffs := []*big.Rat{r(1, 1), r(2, 1), r(3, 1)}
	got := EvalRat(coeffs, r(1, 2))
	if got.Cmp(r(11, 4)) != 0 {
		t.Errorf("EvalRat = %s, want 11/4", got.RatString())
	}
}

// TestSolvePolyDegenerate: many duplicated constraints at the same point
// create degenerate pivots; the solve must still terminate. The Solver's
// per-point bound tightening collapses exact duplicates, so the LP must
// shrink to the two distinct points.
func TestSolvePolyDegenerate(t *testing.T) {
	var cons []Constraint
	for i := 0; i < 40; i++ {
		cons = append(cons, Constraint{X: r(1, 2), Lo: r(1, 1), Hi: r(1, 1)})
		cons = append(cons, Constraint{X: r(1, 3), Lo: r(2, 1), Hi: r(2, 1)})
	}
	coeffs, st, err := solvePolyStats(cons, 3)
	if err != nil {
		t.Fatalf("degenerate but feasible system reported infeasible: %v", err)
	}
	if !CheckPoly(coeffs, cons) {
		t.Fatal("solution violates constraints")
	}
	if wantRows := 2*2 + 1; st.Rows != wantRows {
		t.Errorf("duplicate constraints not collapsed: %d rows, want %d", st.Rows, wantRows)
	}
}

// TestSolvePolyHugeDynamicRange: constraints with double-subnormal-scale
// widths exercise the exact arithmetic where floating point LP would die.
func TestSolvePolyHugeDynamicRange(t *testing.T) {
	tiny := new(big.Rat).SetFrac64(1, 1)
	tiny.Mul(tiny, big.NewRat(1, 1<<62))
	tiny.Mul(tiny, big.NewRat(1, 1<<62)) // 2^-124
	lo := new(big.Rat).SetInt64(1)
	hi := new(big.Rat).Add(lo, tiny)
	cons := []Constraint{
		{X: r(0, 1), Lo: lo, Hi: hi},
		{X: r(1, 1<<20), Lo: r(1, 1), Hi: r(2, 1)},
	}
	coeffs, ok := solvePoly(cons, 2)
	if !ok {
		t.Fatal("expected feasible")
	}
	v := EvalRat(coeffs, r(0, 1))
	if v.Cmp(lo) < 0 || v.Cmp(hi) > 0 {
		t.Fatalf("P(0) = %s outside the 2^-124-wide interval", v.RatString())
	}
}

// TestSolvePolyManyConstraints: a larger sample like the generator's LP
// calls (dozens of rows) stays fast and correct.
func TestSolvePolyManyConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	truth := []*big.Rat{r(1, 1), r(693, 1000), r(240, 1000), r(55, 1000), r(9, 1000), r(1, 1000)}
	var cons []Constraint
	for i := 0; i < 60; i++ {
		x := big.NewRat(int64(rng.Intn(2049)-1024), 1<<18)
		v := EvalRat(truth, x)
		eps := big.NewRat(1, 1<<30)
		cons = append(cons, Constraint{X: x, Lo: new(big.Rat).Sub(v, eps), Hi: new(big.Rat).Add(v, eps)})
	}
	coeffs, ok := solvePoly(cons, 5)
	if !ok {
		t.Fatal("expected feasible")
	}
	if !CheckPoly(coeffs, cons) {
		t.Fatal("violations")
	}
}
