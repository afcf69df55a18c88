package lp

import (
	"context"
	"math/big"
	"testing"
)

// TestPrefixConstraintPinsLeading: a fully determined mixed system — prefix
// constraints of widths 1 and 2 plus a full constraint, all at X = 1 — must
// pin each coefficient independently: C0 = 1/2, C0+C1 = 1, C0+C1+C2 = 2.
func TestPrefixConstraintPinsLeading(t *testing.T) {
	s := NewSolver(Options{Degree: 2})
	one := big.NewRat(1, 1)
	s.AddConstraints(
		Constraint{X: one, Lo: big.NewRat(1, 2), Hi: big.NewRat(1, 2), Prefix: 1},
		Constraint{X: one, Lo: big.NewRat(1, 1), Hi: big.NewRat(1, 1), Prefix: 2},
		Constraint{X: one, Lo: big.NewRat(2, 1), Hi: big.NewRat(2, 1)},
	)
	res, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 2), big.NewRat(1, 1)}
	for j, w := range want {
		if res.Coeffs[j].Cmp(w) != 0 {
			t.Errorf("C%d = %s, want %s", j, res.Coeffs[j].RatString(), w.RatString())
		}
	}
	if !CheckPoly(res.Coeffs, s.accepted) {
		t.Error("CheckPoly rejects the solver's own solution")
	}
}

// TestPrefixInfeasibleDetected: prefix and full constraints that cannot be
// met by one coefficient vector are reported infeasible — the failure mode
// the generator answers by demoting inputs or deepening the prefix.
func TestPrefixInfeasibleDetected(t *testing.T) {
	s := NewSolver(Options{Degree: 1})
	one := big.NewRat(1, 1)
	s.AddConstraints(
		// C0 must be 5 at the prefix, but C0 in [0, 1] at another prefix
		// constraint: no vector satisfies both.
		Constraint{X: one, Lo: big.NewRat(5, 1), Hi: big.NewRat(5, 1), Prefix: 1},
		Constraint{X: big.NewRat(2, 1), Lo: big.NewRat(0, 1), Hi: big.NewRat(1, 1), Prefix: 1},
	)
	if _, err := s.Resolve(context.Background()); err == nil {
		t.Fatal("expected infeasibility")
	}
}

// TestPrefixDominanceKeySeparates: bounds at the same reduced input but
// different prefixes constrain different linear forms, so neither may prune
// the other; identical (X, Prefix) pairs still dedupe.
func TestPrefixDominanceKeySeparates(t *testing.T) {
	s := NewSolver(Options{Degree: 2})
	one := big.NewRat(1, 1)
	lo, hi := big.NewRat(0, 1), big.NewRat(1, 1)
	if n := s.AddConstraints(
		Constraint{X: one, Lo: lo, Hi: hi},
		Constraint{X: one, Lo: lo, Hi: hi, Prefix: 1},
		Constraint{X: one, Lo: lo, Hi: hi, Prefix: 2},
	); n != 3 {
		t.Fatalf("accepted %d of 3 distinct-prefix constraints", n)
	}
	if n := s.AddConstraints(Constraint{X: one, Lo: lo, Hi: hi, Prefix: 1}); n != 0 {
		t.Errorf("dominated repeat accepted (%d)", n)
	}
	// A tighter interval for one prefix is fresh information for that prefix
	// only.
	if n := s.AddConstraints(Constraint{X: one, Lo: big.NewRat(1, 4), Hi: hi, Prefix: 1}); n != 1 {
		t.Errorf("tightened prefix constraint rejected (%d)", n)
	}
}

// TestCheckPolyPrefix: CheckPoly evaluates prefix constraints against the
// truncated polynomial, not the full one.
func TestCheckPolyPrefix(t *testing.T) {
	coeffs := []*big.Rat{big.NewRat(1, 1), big.NewRat(1, 1), big.NewRat(100, 1)}
	x := big.NewRat(1, 1)
	// Full value at 1 is 102; the 2-coefficient prefix is 2.
	okPrefix := []Constraint{{X: x, Lo: big.NewRat(2, 1), Hi: big.NewRat(2, 1), Prefix: 2}}
	if !CheckPoly(coeffs, okPrefix) {
		t.Error("prefix constraint evaluated against the full polynomial")
	}
	badFull := []Constraint{{X: x, Lo: big.NewRat(2, 1), Hi: big.NewRat(2, 1)}}
	if CheckPoly(coeffs, badFull) {
		t.Error("full constraint evaluated against a truncation")
	}
	// Prefix wider than the vector clamps to the full polynomial.
	wide := []Constraint{{X: x, Lo: big.NewRat(102, 1), Hi: big.NewRat(102, 1), Prefix: 9}}
	if !CheckPoly(coeffs, wide) {
		t.Error("over-wide prefix not clamped to the coefficient count")
	}
}

// TestPrefixWarmMatchesCold: the incremental engine's golden property holds
// for mixed full/prefix systems — an incremental Solver's resolves after
// appending prefix constraints return bit-identical coefficients to a fresh
// one-shot Solver of the same system.
func TestPrefixWarmMatchesCold(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		sys := newRandomSystem(seed, 3)
		for i := 0; i < 8; i++ {
			sys.addPoint()
		}
		warm := NewSolver(Options{Degree: 3})
		warmUsed := 0
		var cons []Constraint
		for step := 0; step < 8; step++ {
			cons = sys.cons()
			// Layer prefix constraints over a growing set of points: each is
			// a loose fixed-width interval around the truth polynomial's own
			// prefix (feasible, and purely additive so the warm path stays
			// eligible).
			for i := 0; i <= step && i < len(sys.points); i++ {
				v := EvalRat(sys.truth[:2], sys.points[i])
				w := big.NewRat(400, 16)
				cons = append(cons, Constraint{
					X:      sys.points[i],
					Lo:     new(big.Rat).Sub(v, w),
					Hi:     new(big.Rat).Add(v, w),
					Prefix: 2,
				})
			}
			wres, werr := warm.Solve(ctx, cons)
			cold := NewSolver(Options{Degree: 3})
			cold.AddConstraints(cons...)
			cres, cerr := cold.Resolve(ctx)
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("seed %d step %d: warm err %v vs cold err %v", seed, step, werr, cerr)
			}
			if werr != nil {
				continue
			}
			sameCoeffs(t, wres.Coeffs, cres.Coeffs)
			if !CheckPoly(wres.Coeffs, cons) {
				t.Fatalf("seed %d step %d: optimum violates the mixed system", seed, step)
			}
			if wres.Stats.Warm {
				warmUsed++
			}
		}
		if warmUsed == 0 {
			t.Errorf("seed %d: warm path never taken — the property was tested vacuously", seed)
		}
	}
}
