package lp

import (
	"bufio"
	"context"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadLP reads a testdata LP: a "degree d" line, then one "X Lo Hi"
// line per constraint in big.Rat RatString form. A "resolve" line marks
// where the generator solved; steps lists the constraint count at each.
func loadLP(tb testing.TB, path string) (degree int, cons []Constraint, steps []int) {
	tb.Helper()
	fh, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	degree = -1
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 1 && f[0] == "resolve":
			steps = append(steps, len(cons))
		case len(f) == 2 && f[0] == "degree":
			if degree, err = strconv.Atoi(f[1]); err != nil {
				tb.Fatal(err)
			}
		case len(f) == 3:
			var c Constraint
			for i, dst := range []**big.Rat{&c.X, &c.Lo, &c.Hi} {
				v, ok := new(big.Rat).SetString(f[i])
				if !ok {
					tb.Fatalf("%s: bad rational %q", path, f[i])
				}
				*dst = v
			}
			cons = append(cons, c)
		default:
			tb.Fatalf("%s: bad line %q", path, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if degree < 0 {
		tb.Fatalf("%s: no degree line", path)
	}
	return degree, cons, steps
}

// exp2Instances lists the committed LPs: the three solves of
// rlibm-gen -func exp2 -scheme horner -bits 14 -stride 1 (30, 32 and 33
// constraints, degree 5), each the solver's accepted constraint list.
func exp2Instances(tb testing.TB) []string {
	paths, err := filepath.Glob("testdata/exp2-14-*.lp")
	if err != nil || len(paths) != 3 {
		tb.Fatalf("testdata LPs: %v %v", paths, err)
	}
	return paths
}

// solveBoth solves cons with Resolve and checks the outcome against the
// reference tableau (matchReference). It returns Resolve's result.
func solveBoth(t *testing.T, degree int, cons []Constraint) Result {
	t.Helper()
	s := NewSolver(Options{Degree: degree})
	s.AddConstraints(cons...)
	res, err := s.Resolve(context.Background())
	matchReference(t, degree, s.accepted, res, err)
	return res
}

// matchReference fails unless a Resolve outcome over accepted matches the
// reference tableau's: the same verdict, an answer that meets every row at
// the reference's optimal margin, and, where the reference is canonical,
// the same coefficients bit for bit.
func matchReference(t *testing.T, degree int, accepted []Constraint, res Result, err error) {
	t.Helper()
	want, tRef, st, rerr := refSolve(degree, accepted, DefaultMaxPivots)
	if (err == nil) != (rerr == nil) || errors.Is(err, ErrInfeasible) != errors.Is(rerr, ErrInfeasible) {
		t.Fatalf("Resolve err %v vs reference err %v", err, rerr)
	}
	if err != nil {
		return
	}
	if !meetsMargin(res.Coeffs, tRef, accepted) {
		t.Fatalf("Resolve's coefficients miss the reference's optimal margin %s", tRef.RatString())
	}
	if st.Canonical {
		sameCoeffs(t, res.Coeffs, want)
	}
}

// meetsMargin reports whether coeffs satisfies every LP row at margin t:
// Lo + w·t <= P(X) <= Hi - w·t with w = (Hi-Lo)/2.
func meetsMargin(coeffs []*big.Rat, t *big.Rat, cons []Constraint) bool {
	for _, c := range cons {
		wt := new(big.Rat).Sub(c.Hi, c.Lo)
		wt.Mul(wt, big.NewRat(1, 2))
		wt.Mul(wt, t)
		v := EvalRat(coeffs, c.X)
		if v.Cmp(new(big.Rat).Add(c.Lo, wt)) < 0 || v.Cmp(new(big.Rat).Sub(c.Hi, wt)) > 0 {
			return false
		}
	}
	return true
}

// TestFloatGuidedMatchesExactInstances: on the generator's own LPs the float
// basis certifies, with no exact pivot, and the coefficients equal the
// reference's.
func TestFloatGuidedMatchesExactInstances(t *testing.T) {
	for _, path := range exp2Instances(t) {
		degree, cons, _ := loadLP(t, path)
		st := solveBoth(t, degree, cons).Stats
		if !st.Certified || st.Pivots != 0 || st.FloatPivots == 0 {
			t.Errorf("%s: not certified on the float path: %+v", path, st)
		}
	}
}

// TestFloatGuidedWarmSequence replays the three instances as one warm
// sequence (each extends the previous accepted list), as the generator
// solves them, against the reference at every step.
func TestFloatGuidedWarmSequence(t *testing.T) {
	ctx := context.Background()
	warm := NewSolver(Options{Degree: 5})
	for step, path := range exp2Instances(t) {
		degree, cons, _ := loadLP(t, path)
		warm.AddConstraints(cons[len(warm.accepted):]...)
		wres, werr := warm.Resolve(ctx)
		matchReference(t, degree, cons, wres, werr)
		if !wres.Stats.Certified || wres.Stats.Warm != (step > 0) {
			t.Errorf("%s: certified %v warm %v", path, wres.Stats.Certified, wres.Stats.Warm)
		}
	}
}

// TestFloatGuidedForcedRows replays a warm sequence of the 32-bit
// log10/knuth generation (rlibm-gen -func log10 -scheme knuth -bits 32
// -stride 4093): a cold solve of 32 constraints, then a warm one after
// three more. The warm float search stops at a basis whose exact point
// violates a row, so the certificate forces violated rows into the basis
// until it certifies. Both steps must match the reference.
func TestFloatGuidedForcedRows(t *testing.T) {
	degree, cons, steps := loadLP(t, "testdata/log10-32-knuth-warm.lp")
	if len(steps) != 2 {
		t.Fatalf("want 2 resolve steps, got %v", steps)
	}
	st := replaySteps(t, degree, cons, steps, true)
	if last := st[len(st)-1]; !last.Warm || !last.Certified || last.ForcedRows == 0 || last.ExactReason != ExactNone {
		t.Errorf("warm step did not certify after forced rows: %+v", last)
	}
}

// TestFloatGuidedNoEntering replays a warm sequence of the exp10 stride-1
// generation (rlibm-gen -func exp10 -scheme estrin -bits 16 -stride 1): three
// solves of 86, 111 and 113 constraints. At the last one the float dual
// ratio test finds no basis position for a violated row, a false
// "infeasible" verdict, and the exact continuation carries the float basis
// on to the optimum. Every step must match the reference (under -short,
// only the steps that went exact).
func TestFloatGuidedNoEntering(t *testing.T) {
	degree, cons, steps := loadLP(t, "testdata/exp10-16-estrin-warm.lp")
	noEntering := 0
	for _, st := range replaySteps(t, degree, cons, steps, !testing.Short()) {
		if st.ExactReason == ExactFloatNoEntering {
			noEntering++
		}
	}
	if noEntering == 0 {
		t.Error("no step went exact on a float no-entering verdict: the continuation was tested vacuously")
	}
}

// replaySteps feeds cons to one Solver in the recorded steps, resolving
// after each, checks the steps against the reference (with all false, only
// those that went exact), and returns the steps' stats.
func replaySteps(t *testing.T, degree int, cons []Constraint, steps []int, all bool) []Stats {
	t.Helper()
	s := NewSolver(Options{Degree: degree})
	prev := 0
	var out []Stats
	for _, n := range steps {
		s.AddConstraints(cons[prev:n]...)
		prev = n
		res, err := s.Resolve(context.Background())
		if all || res.Stats.ExactReason != ExactNone {
			matchReference(t, degree, s.accepted, res, err)
		}
		out = append(out, res.Stats)
	}
	return out
}

// TestFloatGuidedMatchesExactRandom replays the randomized add-and-tighten
// sequences of TestWarmMatchesColdRandom: an incremental solver must match the reference at every step. Those systems
// center every interval on the truth polynomial, so their optimum sits at
// the margin cap with no strictly positive certificate and every step goes
// exact. The jittered variant moves each
// lower bound up by a fixed share of its interval, which makes the optimum
// a proper vertex, and there the float path must certify.
func TestFloatGuidedMatchesExactRandom(t *testing.T) {
	ctx := context.Background()
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for _, jitter := range []bool{false, true} {
		certified := 0
		for seed := int64(1); seed <= seeds; seed++ {
			certified += floatRandomSequence(ctx, t, seed, jitter)
		}
		if jitter && certified == 0 {
			t.Error("no jittered step certified: the float path was tested vacuously")
		}
	}
}

// floatRandomSequence runs one randomized sequence and returns how many of
// its steps certified.
func floatRandomSequence(ctx context.Context, t *testing.T, seed int64, jitter bool) int {
	t.Helper()
	certified := 0
	sys := newRandomSystem(seed, 3)
	for i := 0; i < 6; i++ {
		sys.addPoint()
	}
	// A share below 1/2 keeps the truth inside, and tightening the interval
	// toward the truth then never loosens the jittered bound.
	share := make([]*big.Rat, 64)
	for i := range share {
		share[i] = big.NewRat(sys.rng.Int63n(64), 160)
	}
	warm := NewSolver(Options{Degree: 3})
	for step := 0; step < 12; step++ {
		switch {
		case step == 0:
		case sys.rng.Intn(2) == 0:
			sys.addPoint()
		default:
			sys.tighten(sys.rng.Intn(len(sys.points)))
		}
		cons := sys.cons()
		if jitter {
			for i := range cons {
				d := new(big.Rat).Sub(cons[i].Hi, cons[i].Lo)
				cons[i].Lo = d.Add(cons[i].Lo, d.Mul(d, share[i]))
			}
		}
		wres, werr := warm.Solve(ctx, cons)
		matchReference(t, 3, warm.accepted, wres, werr)
		if wres.Stats.Certified {
			certified++
		}
	}
	return certified
}

// TestFloatGuidedFallbacks: LPs the certificate must refuse (a degenerate
// system, a huge dynamic range, an infeasible system, an under-determined
// one, an empty one) go exact and match the reference. Where constraints
// leave coefficients free, the expected answer is pinned: those
// coefficients are 0 and the rest follow the lex-min rule.
func TestFloatGuidedFallbacks(t *testing.T) {
	tiny := new(big.Rat).Mul(big.NewRat(1, 1<<62), big.NewRat(1, 1<<62)) // 2^-124
	half := new(big.Rat).Mul(tiny, big.NewRat(1, 2))
	var degenerate []Constraint
	for i := 0; i < 40; i++ {
		degenerate = append(degenerate,
			Constraint{X: r(1, 2), Lo: r(1, 1), Hi: r(1, 1)},
			Constraint{X: r(1, 3), Lo: r(2, 1), Hi: r(2, 1)})
	}
	cases := []struct {
		name   string
		degree int
		cons   []Constraint
		want   []*big.Rat // nil: infeasible
		reason ExactReason
	}{
		// C_0 and C_1 are free; C_2/4 + C_3/8 = 1 and C_2/9 + C_3/27 = 2.
		{"degenerate", 3, degenerate, []*big.Rat{r(0, 1), r(0, 1), r(46, 1), r(-84, 1)}, ExactFreeCoefficients},
		// C_1 is free; t = 1 puts P(0) at 1 + 2^-125 and P(2^-20) at 3/2.
		{"huge-dynamic-range", 2, []Constraint{
			{X: r(0, 1), Lo: r(1, 1), Hi: new(big.Rat).Add(r(1, 1), tiny)},
			{X: r(1, 1<<20), Lo: r(1, 1), Hi: r(2, 1)},
		}, []*big.Rat{new(big.Rat).Add(r(1, 1), half), r(0, 1),
			new(big.Rat).Mul(new(big.Rat).Sub(r(1, 2), half), r(1<<40, 1))}, ExactFreeCoefficients},
		{"infeasible", 1, []Constraint{
			{X: r(0, 1), Lo: r(0, 1), Hi: r(0, 1)},
			{X: r(1, 1), Lo: r(1, 1), Hi: r(1, 1)},
			{X: r(2, 1), Lo: r(4, 1), Hi: r(4, 1)},
		}, nil, 0},
		// C_1 and C_2 are free; t = 1 centers P(0) at 1/2 and P(1) at 3/2.
		{"under-determined", 3, []Constraint{
			{X: r(0, 1), Lo: r(0, 1), Hi: r(1, 1)},
			{X: r(1, 1), Lo: r(1, 1), Hi: r(2, 1)},
		}, []*big.Rat{r(1, 2), r(0, 1), r(0, 1), r(1, 1)}, ExactFreeCoefficients},
		{"empty", 2, nil, []*big.Rat{r(0, 1), r(0, 1), r(0, 1)}, ExactFreeCoefficients},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := solveBoth(t, tc.degree, tc.cons)
			if st := res.Stats; st.Certified || st.ExactReason == ExactNone {
				t.Errorf("certified an LP without a unique optimum: %+v", st)
			}
			if tc.want == nil {
				return
			}
			sameCoeffs(t, res.Coeffs, tc.want)
			if res.Stats.ExactReason != tc.reason {
				t.Errorf("reason %v, want %v", res.Stats.ExactReason, tc.reason)
			}
			if len(tc.cons) == 0 && res.Stats.Pivots != 0 {
				t.Errorf("an empty system took %d exact pivots, want a direct answer", res.Stats.Pivots)
			}
		})
	}
}

// FuzzFloatGuidedMatchesExact: for any small system of intervals around a
// polynomial, Resolve matches the reference tableau (matchReference),
// including the infeasible verdict.
func FuzzFloatGuidedMatchesExact(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint16(1000))
	f.Add(int64(7), uint8(5), uint8(20), uint16(3))
	f.Add(int64(42), uint8(1), uint8(2), uint16(0))
	f.Add(int64(42), uint8(34), uint8(2), uint16(72)) // a crossed interval: infeasible
	f.Fuzz(func(t *testing.T, seed int64, deg, npts uint8, width uint16) {
		degree := int(deg % 6)
		sys := newRandomSystem(seed, degree)
		for i := 0; i < 1+int(npts%24); i++ {
			sys.addPoint()
		}
		// Rescale the widths (zero makes singleton intervals, which are
		// degenerate), move each interval off-center so the optimum is a
		// vertex, and shift some far enough to make the system infeasible.
		for i := range sys.points {
			v := EvalRat(sys.truth, sys.points[i])
			w := big.NewRat(int64(width)*int64(1+sys.rng.Intn(8)), 1<<16)
			sys.lo[i].Sub(v, w)
			sys.hi[i].Add(v, w)
			shift := new(big.Rat).Mul(w, big.NewRat(sys.rng.Int63n(64), 64))
			if sys.rng.Intn(8) == 0 {
				shift.Add(shift, big.NewRat(sys.rng.Int63n(64), 1<<10))
			}
			sys.lo[i].Add(sys.lo[i], shift)
		}
		solveBoth(t, degree, sys.cons())
	})
}

// BenchmarkSolveExp2Instance is the per-solve cost on the largest committed
// exp2@14 LP: Resolve against the reference tableau.
func BenchmarkSolveExp2Instance(b *testing.B) {
	paths := exp2Instances(b)
	degree, cons, _ := loadLP(b, paths[len(paths)-1])
	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSolver(Options{Degree: degree})
			s.AddConstraints(cons...)
			if _, err := s.Resolve(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := refSolve(degree, cons, DefaultMaxPivots); err != nil {
				b.Fatal(err)
			}
		}
	})
}
