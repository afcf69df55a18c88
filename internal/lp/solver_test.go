package lp

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// randomSystem builds a feasible constraint set: intervals of random widths
// centered on a ground-truth polynomial, at random rational points.
type randomSystem struct {
	rng    *rand.Rand
	truth  []*big.Rat
	points []*big.Rat
	lo, hi []*big.Rat
}

func newRandomSystem(seed int64, degree int) *randomSystem {
	s := &randomSystem{rng: rand.New(rand.NewSource(seed))}
	for j := 0; j <= degree; j++ {
		s.truth = append(s.truth, big.NewRat(s.rng.Int63n(2000)-1000, 64))
	}
	return s
}

// addPoint appends a fresh constraint at a new random point.
func (s *randomSystem) addPoint() {
	x := big.NewRat(s.rng.Int63n(4096)-2048, 1024)
	v := EvalRat(s.truth, x)
	w := big.NewRat(s.rng.Int63n(1000)+1, 256)
	s.points = append(s.points, x)
	s.lo = append(s.lo, new(big.Rat).Sub(v, w))
	s.hi = append(s.hi, new(big.Rat).Add(v, w))
}

// tighten shrinks one interval toward the truth value (staying feasible).
func (s *randomSystem) tighten(i int) {
	v := EvalRat(s.truth, s.points[i])
	half := big.NewRat(1, 2)
	nl := new(big.Rat).Sub(v, s.lo[i])
	nl.Mul(nl, half)
	s.lo[i].Sub(v, nl)
	nh := new(big.Rat).Sub(s.hi[i], v)
	nh.Mul(nh, half)
	s.hi[i].Add(v, nh)
}

func (s *randomSystem) cons() []Constraint {
	out := make([]Constraint, len(s.points))
	for i := range s.points {
		out[i] = Constraint{X: s.points[i], Lo: s.lo[i], Hi: s.hi[i]}
	}
	return out
}

// sameCoeffs compares two coefficient vectors exactly and after rounding to
// float64 — the representation the generator ships.
func sameCoeffs(t *testing.T, got, want []*big.Rat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("coefficient counts differ: %d vs %d", len(got), len(want))
	}
	for j := range got {
		if got[j].Cmp(want[j]) != 0 {
			t.Fatalf("coefficient %d differs: got %s, want %s", j, got[j].RatString(), want[j].RatString())
		}
		wf, _ := got[j].Float64()
		cf, _ := want[j].Float64()
		if wf != cf {
			t.Fatalf("coefficient %d rounds differently: %v vs %v", j, wf, cf)
		}
	}
}

// TestWarmMatchesColdRandom is the golden property of the incremental
// engine: over randomized sequences of constraint additions and interval
// tightenings, an incremental Solver, warm-started from its previous basis,
// returns bit-identical coefficients to a fresh one-shot Solver of the same
// system.
func TestWarmMatchesColdRandom(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		sys := newRandomSystem(seed, 3)
		warm := NewSolver(Options{Degree: 3})
		warmUsed := 0
		for i := 0; i < 6; i++ {
			sys.addPoint()
		}
		for step := 0; step < 12; step++ {
			switch {
			case step == 0:
			case sys.rng.Intn(2) == 0:
				sys.addPoint()
			default:
				sys.tighten(sys.rng.Intn(len(sys.points)))
			}
			cons := sys.cons()
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
			if wres.Stats.Warm {
				warmUsed++
			}
		}
		if warmUsed == 0 {
			t.Errorf("seed %d: warm path never taken — the property was tested vacuously", seed)
		}
	}
}

// TestWarmMatchesColdAccumulated drives one incremental Solver through a
// long add-then-tighten sequence against a fresh one-shot Solver at every
// step, which starts from no previous basis.
func TestWarmMatchesColdAccumulated(t *testing.T) {
	ctx := context.Background()
	sys := newRandomSystem(99, 2)
	warm := NewSolver(Options{Degree: 2})
	for i := 0; i < 5; i++ {
		sys.addPoint()
	}
	for step := 0; step < 8; step++ {
		if step > 0 {
			sys.tighten(step % len(sys.points))
		}
		wres, err := warm.Solve(ctx, sys.cons())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// The one-shot solver must see the same accumulated constraint
		// history the incremental one solved (stale superseded rows
		// included), so feed it the solver's accepted list.
		cold := NewSolver(Options{Degree: 2})
		cold.AddConstraints(warm.accepted...)
		cres, err := cold.Resolve(ctx)
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		sameCoeffs(t, wres.Coeffs, cres.Coeffs)
	}
}

// TestSolverRemovalResets: dropping a previously seen input (the generator
// demoting it to a special case) must reset the accumulated state, not
// leave its rows silently constraining the solution.
func TestSolverRemovalResets(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(Options{Degree: 1})
	cons := []Constraint{
		{X: r(0, 1), Lo: r(0, 1), Hi: r(1, 1)},
		{X: r(1, 1), Lo: r(4, 1), Hi: r(5, 1)},
		{X: r(2, 1), Lo: r(17, 2), Hi: r(9, 1)}, // pins the slope tightly
	}
	if _, err := s.Solve(ctx, cons); err != nil {
		t.Fatalf("initial solve: %v", err)
	}
	// Without the third constraint the solution must be free to relax; a
	// fresh solver defines the expected answer.
	res, err := s.Solve(ctx, cons[:2])
	if err != nil {
		t.Fatalf("after removal: %v", err)
	}
	fresh := NewSolver(Options{Degree: 1})
	fresh.AddConstraints(cons[:2]...)
	want, err := fresh.Resolve(ctx)
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	sameCoeffs(t, res.Coeffs, want.Coeffs)
	if res.Stats.Warm {
		t.Error("solve after removal claimed the warm path")
	}
}

// TestSolverDominancePruning: restating known-or-looser bounds adds no
// LP rows.
func TestSolverDominancePruning(t *testing.T) {
	s := NewSolver(Options{Degree: 1})
	c := Constraint{X: r(1, 2), Lo: r(1, 1), Hi: r(2, 1)}
	if got := s.AddConstraints(c, c, c); got != 1 {
		t.Fatalf("accepted %d copies of one constraint, want 1", got)
	}
	looser := Constraint{X: r(1, 2), Lo: r(0, 1), Hi: r(3, 1)}
	if got := s.AddConstraints(looser); got != 0 {
		t.Fatalf("accepted a dominated (looser) constraint")
	}
	tighter := Constraint{X: r(1, 2), Lo: r(5, 4), Hi: r(2, 1)}
	if got := s.AddConstraints(tighter); got != 1 {
		t.Fatalf("rejected a tightening constraint")
	}
	res, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 2 accepted constraints -> 2 row pairs + the margin row.
	if res.Stats.Rows != 5 {
		t.Errorf("LP rows = %d, want 5 (pruning failed)", res.Stats.Rows)
	}
}

// TestSolverCanceled: a canceled context surfaces as *CanceledError with
// the "canceled" cause label, wrapping context.Canceled.
func TestSolverCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cons []Constraint
	for i := int64(0); i <= 6; i++ {
		v := r(i*i, 1)
		cons = append(cons, Constraint{X: r(i, 1), Lo: v, Hi: v})
	}
	s := NewSolver(Options{Degree: 4})
	s.AddConstraints(cons...)
	_, err := s.Resolve(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
	if InfeasibilityCause(err) != "canceled" {
		t.Errorf("cause = %q, want canceled", InfeasibilityCause(err))
	}
}

// TestSolverWarmInfeasible: an infeasible tightening discovered from the
// warm basis reports ErrInfeasible (the verdict is exact).
func TestSolverWarmInfeasible(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(Options{Degree: 0})
	base := []Constraint{{X: r(0, 1), Lo: r(0, 1), Hi: r(4, 1)}}
	if _, err := s.Solve(ctx, base); err != nil {
		t.Fatalf("base solve: %v", err)
	}
	// Two more constraints at new points whose intersection with the first
	// is empty for a degree-0 polynomial.
	next := []Constraint{
		base[0],
		{X: r(1, 1), Lo: r(0, 1), Hi: r(1, 1)},
		{X: r(2, 1), Lo: r(3, 1), Hi: r(4, 1)},
	}
	_, err := s.Solve(ctx, next)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// The solver must recover: a feasible set after the verdict solves cold.
	res, err := s.Solve(ctx, base)
	if err != nil {
		t.Fatalf("recovery solve: %v", err)
	}
	if res.Stats.Warm {
		t.Error("recovery solve claimed the warm path after an infeasible verdict")
	}
}

// TestSolverSetDegree: changing the degree resets state and solves in the
// new variable space.
func TestSolverSetDegree(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(Options{Degree: 1})
	cons := []Constraint{
		{X: r(0, 1), Lo: r(0, 1), Hi: r(0, 1)},
		{X: r(1, 1), Lo: r(1, 1), Hi: r(1, 1)},
		{X: r(2, 1), Lo: r(4, 1), Hi: r(4, 1)},
	}
	if _, err := s.Solve(ctx, cons[:2]); err != nil {
		t.Fatalf("degree-1 solve: %v", err)
	}
	s.SetDegree(2)
	res, err := s.Solve(ctx, cons)
	if err != nil {
		t.Fatalf("degree-2 solve: %v", err)
	}
	if len(res.Coeffs) != 3 {
		t.Fatalf("got %d coefficients, want 3", len(res.Coeffs))
	}
	if !CheckPoly(res.Coeffs, cons) {
		t.Error("degree-2 solution violates constraints")
	}
}

// benchRounds is a generator-shaped workload: an initial solve followed by
// rounds that add points and tighten intervals, on one incremental Solver
// or on a fresh Solver per round.
func benchRounds(b *testing.B, incremental bool) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := newRandomSystem(7, 4)
		for j := 0; j < 12; j++ {
			sys.addPoint()
		}
		s := NewSolver(Options{Degree: 4})
		b.StartTimer()
		if _, err := s.Solve(ctx, sys.cons()); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			sys.addPoint()
			sys.tighten(round % 12)
			if !incremental {
				s = NewSolver(Options{Degree: 4})
			}
			if _, err := s.Solve(ctx, sys.cons()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSolveWarmStart(b *testing.B) { benchRounds(b, true) }
func BenchmarkSolveCold(b *testing.B)      { benchRounds(b, false) }
