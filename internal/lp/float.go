package lp

import (
	"context"
	"math"
	"math/big"
	"sort"
)

// floatLP is the float64 image of the solver's LP, written as inequalities
// over y = (C_0, ..., C_d, t): maximize t subject to a_i·y <= b_i. Row 0 is
// the margin cap t <= 1, and accepted constraint k contributes the lo row 1+2k
// (-P(X) + w·t <= -Lo) and the hi row 2+2k (P(X) + w·t <= Hi), where
// w = (Hi-Lo)/2.
//
// A basis is a set of n = nc+1 rows taken as active (equalities). The float
// simplex is the dual simplex in this form: its basis always keeps the
// objective gradient e_t in the cone of the active rows (dual feasible) and
// each pivot brings the most violated row into the basis. Its answer is only
// a guide: certify re-solves the basis in big.Rat and checks it exactly, and
// the exact continuation (exact.go) carries on from it when it fails.
type floatLP struct {
	n    int       // columns: nc coefficients, then t
	a, b []float64 // unscaled rows, row-major m×n, and right-hand sides
	xs   []float64 // per constraint: X
	w    []*big.Rat

	basis []int // active rows of the last float optimum; nil when none

	// Per-solve working state: the rows scaled by powers of two (columns to
	// unit maximum, then rows to unit maximum), and the basis factorization.
	sa, sb   []float64
	rowScale []float64
	lu       []float64
	perm     []int
	inBasis  []bool
	y, lam   []float64
	alpha    []float64
	rhs      []float64
}

// Float simplex tolerances, in the scaled space where every row's largest
// entry lies in [1/2, 1). They only steer the search; the certificate
// decides.
const (
	floatFeasTol  = 1e-13 // relative primal violation treated as feasible
	floatDualTol  = 1e-12 // Harris ratio-test relaxation of the duals
	floatPivotTol = 1e-11 // smallest usable pivot, relative to max |alpha|
	// floatRefineRounds bounds how many exactly-violated rows are forced
	// into the float basis before the solve goes exact. A
	// warm float basis can end a hair off the exact optimum: in the 32-bit
	// stride-4093 regeneration 47 of 256 solves certify only after one to
	// four forced rows, 31 of them log10/knuth's.
	floatRefineRounds = 4
)

func newFloatLP(nc int) *floatLP {
	f := &floatLP{n: nc + 1}
	f.appendRow(nil, 1) // margin cap
	f.a[nc] = 1
	return f
}

func (f *floatLP) rows() int { return len(f.b) }

// appendRow adds a row with zero coefficients except those in vals.
func (f *floatLP) appendRow(vals []float64, rhs float64) {
	row := make([]float64, f.n)
	copy(row, vals)
	f.a = append(f.a, row...)
	f.b = append(f.b, rhs)
}

func ratFloat(x *big.Rat) float64 {
	v, _ := x.Float64()
	return v
}

// addConstraint appends the lo/hi row pair of c.
func (f *floatLP) addConstraint(c *Constraint) {
	nc := f.n - 1
	w := new(big.Rat).Sub(c.Hi, c.Lo)
	w.Mul(w, big.NewRat(1, 2))
	x := ratFloat(c.X)
	wf := ratFloat(w)
	hi := make([]float64, f.n)
	lo := make([]float64, f.n)
	pow := 1.0
	for j := 0; j < nc; j++ {
		hi[j], lo[j] = pow, -pow
		pow = float64(pow * x)
	}
	hi[nc], lo[nc] = wf, wf
	f.appendRow(lo, -ratFloat(c.Lo))
	f.appendRow(hi, ratFloat(c.Hi))
	f.xs = append(f.xs, x)
	f.w = append(f.w, w)
}

// scale fills the scaled working copy of the rows. It reports false when a
// value is not finite (a range float64 cannot model) or a column is zero
// (the coefficient is unconstrained, so no basis can be nonsingular).
func (f *floatLP) scale() bool {
	m, n := f.rows(), f.n
	colScale := make([]float64, n)
	for j := 0; j < n; j++ {
		mx := 0.0
		for i := 0; i < m; i++ {
			mx = math.Max(mx, math.Abs(f.a[i*n+j]))
		}
		if mx == 0 || math.IsInf(mx, 0) || math.IsNaN(mx) {
			return false
		}
		_, e := math.Frexp(mx)
		colScale[j] = math.Ldexp(1, -e)
	}
	f.sa = grow(f.sa, m*n)
	f.sb = grow(f.sb, m)
	f.rowScale = grow(f.rowScale, m)
	for i := 0; i < m; i++ {
		row := f.sa[i*n : (i+1)*n]
		mx := 0.0
		for j := 0; j < n; j++ {
			row[j] = f.a[i*n+j] * colScale[j]
			mx = math.Max(mx, math.Abs(row[j]))
		}
		if mx == 0 || math.IsNaN(mx) || math.IsInf(f.b[i], 0) || math.IsNaN(f.b[i]) {
			return false
		}
		_, e := math.Frexp(mx)
		rs := math.Ldexp(1, -e)
		for j := range row {
			row[j] *= rs
		}
		f.sb[i] = f.b[i] * rs
		f.rowScale[i] = rs
	}
	return true
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// coldBasis returns the starting basis of a cold float solve: the margin cap
// plus the hi rows of nc constraints spread across the sorted inputs. Its
// vertex interpolates those intervals' midpoints at t = 1, and its duals (1
// on the cap, 0 elsewhere) are feasible. Returns nil when fewer than nc
// distinct inputs carry constraints.
func (f *floatLP) coldBasis() []int {
	nc := f.n - 1
	cand := make([]int, len(f.xs))
	for k := range cand {
		cand[k] = k
	}
	sort.SliceStable(cand, func(i, j int) bool { return f.xs[cand[i]] < f.xs[cand[j]] })
	distinct := cand[:0]
	for _, k := range cand {
		if len(distinct) == 0 || f.xs[distinct[len(distinct)-1]] != f.xs[k] {
			distinct = append(distinct, k)
		}
	}
	if len(distinct) < nc {
		return nil
	}
	basis := []int{0}
	for q := 0; q < nc; q++ {
		pick := len(distinct) / 2
		if nc > 1 {
			pick = q * (len(distinct) - 1) / (nc - 1)
		}
		basis = append(basis, 2+2*distinct[pick])
	}
	return basis
}

// factor LU-factors the basis rows with partial pivoting; false when the
// basis is numerically singular.
func (f *floatLP) factor(basis []int) bool {
	n := f.n
	f.lu = grow(f.lu, n*n)
	if cap(f.perm) < n {
		f.perm = make([]int, n)
	}
	f.perm = f.perm[:n]
	for k, i := range basis {
		copy(f.lu[k*n:(k+1)*n], f.sa[i*n:(i+1)*n])
		f.perm[k] = k
	}
	lu := f.lu
	for c := 0; c < n; c++ {
		p, mx := -1, 0.0
		for r := c; r < n; r++ {
			if v := math.Abs(lu[r*n+c]); v > mx {
				p, mx = r, v
			}
		}
		if mx < 1e-14 {
			return false
		}
		if p != c {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[c*n+j] = lu[c*n+j], lu[p*n+j]
			}
			f.perm[p], f.perm[c] = f.perm[c], f.perm[p]
		}
		piv := lu[c*n+c]
		for r := c + 1; r < n; r++ {
			l := lu[r*n+c] / piv
			lu[r*n+c] = l
			if l == 0 {
				continue
			}
			for j := c + 1; j < n; j++ {
				lu[r*n+j] -= float64(l * lu[c*n+j])
			}
		}
	}
	return true
}

// solve overwrites z with the solution of B·z = z, where B holds the basis
// rows in basis order (P·B = L·U).
func (f *floatLP) solve(z []float64) {
	n, lu := f.n, f.lu
	t := grow(f.rhs, n)
	for k := 0; k < n; k++ {
		t[k] = z[f.perm[k]]
	}
	for r := 0; r < n; r++ {
		s := t[r]
		for j := 0; j < r; j++ {
			s -= float64(lu[r*n+j] * t[j])
		}
		t[r] = s
	}
	for r := n - 1; r >= 0; r-- {
		s := t[r]
		for j := r + 1; j < n; j++ {
			s -= float64(lu[r*n+j] * t[j])
		}
		t[r] = s / lu[r*n+r]
	}
	copy(z, t)
	f.rhs = t
}

// solveT overwrites z with the solution of B^T·z = z.
func (f *floatLP) solveT(z []float64) {
	n, lu := f.n, f.lu
	t := grow(f.rhs, n)
	copy(t, z)
	for r := 0; r < n; r++ { // U^T
		s := t[r]
		for j := 0; j < r; j++ {
			s -= float64(lu[j*n+r] * t[j])
		}
		t[r] = s / lu[r*n+r]
	}
	for r := n - 1; r >= 0; r-- { // L^T (unit diagonal)
		s := t[r]
		for j := r + 1; j < n; j++ {
			s -= float64(lu[j*n+r] * t[j])
		}
		t[r] = s
	}
	for k := 0; k < n; k++ {
		z[f.perm[k]] = t[k]
	}
	f.rhs = t
}

// optimize runs the dual simplex from basis (modified in place) until no row
// is violated, and returns ExactNone there, or the reason it stopped short:
// a singular basis, the pivot budget, or a violated row no basis exchange
// can repair (a float "infeasible" verdict). force >= 0 names a row that
// must enter first: a row the exact certificate found violated although the
// float slack said otherwise.
func (f *floatLP) optimize(ctx context.Context, basis []int, force, limit int, pivots *int) (ExactReason, error) {
	m, n := f.rows(), f.n
	if cap(f.inBasis) < m {
		f.inBasis = make([]bool, m)
	}
	f.inBasis = f.inBasis[:m]
	for i := range f.inBasis {
		f.inBasis[i] = false
	}
	for _, i := range basis {
		f.inBasis[i] = true
	}
	f.y = grow(f.y, n)
	f.lam = grow(f.lam, n)
	f.alpha = grow(f.alpha, n)
	degenerate := 0
	for {
		if ctx != nil && ctx.Err() != nil {
			return ExactNone, &CanceledError{Phase: "float", Err: ctx.Err()}
		}
		if !f.factor(basis) {
			return ExactFloatSingular, nil
		}
		for k, i := range basis {
			f.y[k] = f.sb[i]
			f.lam[k] = 0
		}
		f.lam[n-1] = 1
		f.solve(f.y)
		f.solveT(f.lam)
		bland := degenerate > 2*(m+n)
		r := force
		force = -1
		if r < 0 {
			worst := 0.0
			for i := 0; i < m; i++ {
				if f.inBasis[i] {
					continue
				}
				row := f.sa[i*n : (i+1)*n]
				dot, mag := 0.0, math.Abs(f.sb[i])
				for j, v := range row {
					p := float64(v * f.y[j])
					dot += p
					mag += math.Abs(p)
				}
				s := f.sb[i] - dot
				if s >= -floatFeasTol*mag {
					continue
				}
				if bland {
					r = i
					break
				}
				if r < 0 || s < worst {
					r, worst = i, s
				}
			}
		}
		if r < 0 {
			return ExactNone, nil
		}
		if *pivots >= limit {
			return ExactFloatPivotBudget, nil
		}
		copy(f.alpha, f.sa[r*n:(r+1)*n])
		f.solveT(f.alpha)
		amax := 0.0
		for _, v := range f.alpha {
			amax = math.Max(amax, math.Abs(v))
		}
		tol := floatPivotTol * math.Max(1, amax)
		k := -1
		if bland {
			var best float64
			for q, al := range f.alpha {
				if al <= tol {
					continue
				}
				ratio := math.Max(f.lam[q], 0) / al
				if k < 0 || ratio < best || (ratio == best && basis[q] < basis[k]) {
					k, best = q, ratio
				}
			}
		} else {
			// Harris: the largest pivot among the ratios within the
			// tolerance-relaxed minimum.
			thetaMax := math.Inf(1)
			for q, al := range f.alpha {
				if al > tol {
					thetaMax = math.Min(thetaMax, (math.Max(f.lam[q], 0)+floatDualTol)/al)
				}
			}
			for q, al := range f.alpha {
				if al <= tol || math.Max(f.lam[q], 0)/al > thetaMax {
					continue
				}
				if k < 0 || al > f.alpha[k] {
					k = q
				}
			}
		}
		if k < 0 {
			return ExactFloatNoEntering, nil
		}
		if math.Max(f.lam[k], 0)/f.alpha[k] <= floatDualTol {
			degenerate++
		} else {
			degenerate = 0
		}
		f.inBasis[basis[k]] = false
		f.inBasis[r] = true
		basis[k] = r
		*pivots++
	}
}

// floatMaxPivots bounds one float simplex run; beyond it the solve goes
// exact (a float run that long is cycling).
func floatMaxPivots(m, n int) int { return 50 * (m + n) }

// exactRow returns row i of the LP as exact rationals.
func (s *Solver) exactRow(i int) ([]*big.Rat, *big.Rat) {
	n := s.nc + 1
	row := make([]*big.Rat, n)
	for j := range row {
		row[j] = new(big.Rat)
	}
	if i == 0 {
		row[s.nc].SetInt64(1)
		return row, big.NewRat(1, 1)
	}
	k := (i - 1) / 2
	c := &s.accepted[k]
	lo := i%2 == 1
	pow := new(big.Rat).SetInt64(1)
	for j := 0; j < s.nc; j++ {
		row[j].Set(pow)
		if lo {
			row[j].Neg(row[j])
		}
		pow.Mul(pow, c.X)
	}
	row[s.nc].Set(s.flp.w[k])
	if lo {
		return row, new(big.Rat).Neg(c.Lo)
	}
	return row, new(big.Rat).Set(c.Hi)
}

// rowValues returns a·v for the lo and hi rows of accepted constraint k,
// for v = (C, t) over all nc+1 components.
func (s *Solver) rowValues(k int, v []*big.Rat) (lo, hi *big.Rat) {
	c := &s.accepted[k]
	p := EvalRat(v[:s.nc], c.X)
	wt := new(big.Rat).Mul(s.flp.w[k], v[s.nc])
	return new(big.Rat).Sub(wt, p), p.Add(p, wt)
}

// violations calls visit, in row order, with the excess a_i·y - b_i of
// every row that y violates.
func (s *Solver) violations(y []*big.Rat, visit func(i int, excess *big.Rat)) {
	if d := new(big.Rat).Sub(y[s.nc], big.NewRat(1, 1)); d.Sign() > 0 {
		visit(0, d)
	}
	for k := range s.accepted {
		c := &s.accepted[k]
		lo, hi := s.rowValues(k, y)
		// lo row: P - w·t >= Lo; hi row: P + w·t <= Hi.
		if d := lo.Add(lo, c.Lo); d.Sign() > 0 {
			visit(1+2*k, d)
		}
		if d := hi.Sub(hi, c.Hi); d.Sign() > 0 {
			visit(2+2*k, d)
		}
	}
}

// solveRat solves a·z = rhs exactly (a is n×n and is overwritten). Returns
// nil when a is singular.
func solveRat(a [][]*big.Rat, rhs []*big.Rat) []*big.Rat {
	n := len(a)
	var f, prod big.Rat
	for c := 0; c < n; c++ {
		p := -1
		for r := c; r < n; r++ {
			if a[r][c].Sign() != 0 {
				p = r
				break
			}
		}
		if p < 0 {
			return nil
		}
		a[p], a[c] = a[c], a[p]
		rhs[p], rhs[c] = rhs[c], rhs[p]
		for r := c + 1; r < n; r++ {
			if a[r][c].Sign() == 0 {
				continue
			}
			f.Quo(a[r][c], a[c][c])
			for j := c; j < n; j++ {
				a[r][j].Sub(a[r][j], prod.Mul(&f, a[c][j]))
			}
			rhs[r].Sub(rhs[r], prod.Mul(&f, rhs[c]))
		}
	}
	z := make([]*big.Rat, n)
	for r := n - 1; r >= 0; r-- {
		v := new(big.Rat).Set(rhs[r])
		for j := r + 1; j < n; j++ {
			v.Sub(v, prod.Mul(a[r][j], z[j]))
		}
		z[r] = v.Quo(v, a[r][r])
	}
	return z
}

// certVerdict is the outcome of certify.
type certVerdict int

const (
	certUnique     certVerdict = iota // y is the unique optimum
	certInfeasible                    // λ >= 0, so no feasible t exceeds y's, and y's t < 0
	certViolated                      // y violates a row; violated names the worst one
	certRefused                       // singular, a negative λ, or a zero λ at an optimum
)

// certify checks a float basis exactly. It solves the basis rows as
// equalities for y = (C, t) and the transposed system for the dual
// multipliers, in big.Rat. The basis is certified when the multipliers are
// all strictly positive and y satisfies every row: y is then an optimum,
// and by complementary slackness every optimum makes the basis rows active,
// so y is the unique optimum, the point the lex-min rule picks. On a primal
// violation, violated names the row to force into the float basis.
func (s *Solver) certify(basis []int) (coeffs []*big.Rat, violated int, verdict certVerdict) {
	n := s.nc + 1
	a := make([][]*big.Rat, n)
	at := make([][]*big.Rat, n)
	rhs := make([]*big.Rat, n)
	for k := range at {
		at[k] = make([]*big.Rat, n)
	}
	for k, i := range basis {
		a[k], rhs[k] = s.exactRow(i)
		for j := 0; j < n; j++ {
			at[j][k] = new(big.Rat).Set(a[k][j])
		}
	}
	rows := make([][]*big.Rat, n)
	copy(rows, a)
	y := solveRat(rows, rhs)
	if y == nil {
		return nil, -1, certRefused
	}
	et := make([]*big.Rat, n)
	for j := range et {
		et[j] = new(big.Rat)
	}
	et[n-1].SetInt64(1)
	lam := solveRat(at, et)
	if lam == nil {
		return nil, -1, certRefused
	}
	zero := false
	for _, l := range lam {
		if l.Sign() < 0 {
			return nil, -1, certRefused
		}
		zero = zero || l.Sign() == 0
	}
	if y[s.nc].Sign() < 0 {
		return nil, -1, certInfeasible
	}
	violated, worst := -1, 0.0
	s.violations(y, func(i int, excess *big.Rat) {
		if v := ratFloat(excess) * s.flp.rowScale[i]; violated < 0 || v > worst {
			violated, worst = i, v
		}
	})
	switch {
	case violated >= 0:
		return nil, violated, certViolated
	case zero:
		return nil, -1, certRefused
	}
	return y[:s.nc], -1, certUnique
}

// floatResolve is the fast path of Resolve: a float64 dual simplex finds an
// optimal basis, warm-started from the previous one, and certify proves it
// exactly. It returns the certified coefficients and basis, or ErrInfeasible
// when the certificate proves the system infeasible. Otherwise coeffs is nil,
// st.ExactReason says why, and basis is the float basis the exact
// continuation may resume from (nil when there is none). The only other
// error is a cancellation.
func (s *Solver) floatResolve(ctx context.Context, st *Stats) (coeffs []*big.Rat, basis []int, err error) {
	f := s.flp
	basis = f.basis
	f.basis = nil
	if basis != nil {
		st.Warm = true
	} else {
		basis = f.coldBasis()
	}
	if basis == nil || !f.scale() {
		st.ExactReason = ExactFloatSingular
		return nil, nil, nil
	}
	limit := floatMaxPivots(f.rows(), f.n)
	force := -1
	for round := 0; ; round++ {
		reason, err := f.optimize(ctx, basis, force, limit, &st.FloatPivots)
		if err != nil || reason != ExactNone {
			st.ExactReason = reason
			return nil, basis, err
		}
		coeffs, violated, verdict := s.certify(basis)
		switch {
		case verdict == certUnique:
			f.basis = basis
			st.Certified = true
			return coeffs, basis, nil
		case verdict == certInfeasible:
			st.ExactReason = ExactInfeasible
			return nil, nil, ErrInfeasible
		case verdict == certViolated && round < floatRefineRounds:
			force = violated
			st.ForcedRows++
		default:
			st.ExactReason = ExactCertificate
			return nil, basis, nil
		}
	}
}
