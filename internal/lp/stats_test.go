package lp

import (
	"errors"
	"math/big"
	"strings"
	"testing"
)

// TestSolvePolyStatsFeasible: a solvable system reports its LP dimensions
// and the path its answer took.
func TestSolvePolyStatsFeasible(t *testing.T) {
	var cons []Constraint
	for i := int64(0); i <= 2; i++ {
		v := r(i*i, 1)
		cons = append(cons, Constraint{X: r(i, 1), Lo: v, Hi: v})
	}
	coeffs, st, err := solvePolyStats(cons, 2)
	if err != nil {
		t.Fatalf("expected feasible, got %v", err)
	}
	if !CheckPoly(coeffs, cons) {
		t.Error("solution violates constraints")
	}
	// 2 rows per constraint + 1 margin row; columns: 3 coefficients + t.
	wantRows := 2*len(cons) + 1
	if st.Rows != wantRows || st.Cols != 4 {
		t.Errorf("dims = %dx%d, want %dx4", st.Rows, st.Cols, wantRows)
	}
	// Singleton intervals leave t unconstrained below the cap, so the only
	// positive multiplier is the cap's: the certificate cannot prove the
	// optimum unique, and the exact continuation settles it.
	if st.Certified || st.ExactReason != ExactCertificate {
		t.Errorf("path not recorded: %+v", st)
	}
}

// TestSolvePolyStatsInfeasible: disjoint singleton requirements at the same
// point produce ErrInfeasible with a populated cause label.
func TestSolvePolyStatsInfeasible(t *testing.T) {
	cons := []Constraint{
		{X: r(1, 1), Lo: r(0, 1), Hi: r(0, 1)},
		{X: r(1, 1), Lo: r(1, 1), Hi: r(1, 1)},
	}
	_, st, err := solvePolyStats(cons, 3)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if InfeasibilityCause(err) != "infeasible" {
		t.Errorf("cause = %q", InfeasibilityCause(err))
	}
	// One distinct input pins only C_3; the rest are free.
	if st.Rows != 5 || st.ExactReason != ExactFreeCoefficients {
		t.Errorf("infeasible verdict must still report its solve: %+v", st)
	}
}

// TestPivotLimit: a budget far below the system's needs stops the reference
// tableau with a descriptive *PivotLimitError instead of pivoting on.
func TestPivotLimit(t *testing.T) {
	var cons []Constraint
	for i := int64(0); i <= 5; i++ {
		v := r(i*i*i, 1)
		cons = append(cons, Constraint{X: r(i, 1), Lo: v, Hi: v})
	}
	_, _, st, err := refSolve(5, cons, 2)
	var pl *PivotLimitError
	if !errors.As(err, &pl) {
		t.Fatalf("err = %v, want *PivotLimitError", err)
	}
	if pl.Limit != 2 || pl.Phase != 1 {
		t.Errorf("limit error = %+v, want phase 1 limit 2", pl)
	}
	if !strings.Contains(err.Error(), "2-pivot limit") || !strings.Contains(err.Error(), "cycling") {
		t.Errorf("error not descriptive: %q", err.Error())
	}
	if InfeasibilityCause(err) != "pivot-limit" {
		t.Errorf("cause = %q", InfeasibilityCause(err))
	}
	if st.Phase1Pivots != 2 {
		t.Errorf("stats report %d phase-1 pivots under a budget of 2", st.Phase1Pivots)
	}
	// A generous budget solves the same system.
	if _, _, _, err := refSolve(5, cons, DefaultMaxPivots); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}

// TestPivotLimitPhase2: a budget that survives phase 1 but not phase 2
// reports the phase it died in.
func TestPivotLimitPhase2(t *testing.T) {
	// Find the phase-1 pivot count of a feasible system, then grant exactly
	// one more pivot than phase 1 needs so the limit fires in phase 2 (the
	// margin-maximization phase always pivots at least once here: t = 0 is
	// feasible but not optimal for these wide intervals).
	var cons []Constraint
	for i := int64(0); i <= 4; i++ {
		cons = append(cons, Constraint{X: r(i, 1), Lo: r(i-1, 1), Hi: r(i+1, 1)})
	}
	_, _, full, err := refSolve(2, cons, DefaultMaxPivots)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if full.Phase2Pivots == 0 {
		t.Skip("system optimized without phase-2 pivots; limit cannot fire there")
	}
	_, _, _, err = refSolve(2, cons, full.Phase1Pivots+full.Phase2Pivots-1)
	var pl *PivotLimitError
	if !errors.As(err, &pl) {
		t.Fatalf("err = %v, want *PivotLimitError", err)
	}
	if pl.Phase != 2 {
		t.Errorf("limit fired in phase %d, want 2", pl.Phase)
	}
}

// TestSolveStandardStatsUnbounded: the typed error distinguishes
// unboundedness.
func TestSolveStandardStatsUnbounded(t *testing.T) {
	a := [][]*big.Rat{{r(1, 1), r(-1, 1)}}
	b := []*big.Rat{r(0, 1)}
	c := []*big.Rat{r(-1, 1), r(0, 1)}
	_, _, err := solveStandardStats(a, b, c, 0)
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	if InfeasibilityCause(err) != "unbounded" {
		t.Errorf("cause = %q", InfeasibilityCause(err))
	}
}
