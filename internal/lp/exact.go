package lp

import (
	"context"
	"math/big"
)

// exactLP is the exact continuation of a solve the certificate did not
// settle: the float path's dual simplex over the same inequality form and
// the same small basis, one LP row per component of y = (C, t), in big.Rat.
// Phase 1 maximizes t from a dual-feasible basis; phase 2 runs only when a
// multiplier is zero, and pins the coefficients to the lex-min point (max t,
// then min C_0, min C_1, ...) by a primal simplex on the optimal face. A
// coefficient the constraints leave free is free in both directions on
// every optimal face; it is set to 0 and dropped from the columns first,
// which leaves every stage bounded.
type exactLP struct {
	s     *Solver
	cols  []int      // components of y the basis spans: bound coefficients, then t
	basis []int      // one LP row per entry of cols
	y     []*big.Rat // current vertex over all nc+1 components
}

// exactResolve finishes the solve in exact arithmetic from start, the float
// basis (nil when there is none).
func (s *Solver) exactResolve(ctx context.Context, start []int, st *Stats) ([]*big.Rat, []int, error) {
	e := &exactLP{s: s}
	cold := s.flp.coldBasis()
	if cold == nil {
		e.cols, cold = s.boundColumns()
	} else {
		for j := 0; j <= s.nc; j++ {
			e.cols = append(e.cols, j)
		}
	}
	full := len(e.cols) == s.nc+1
	if !full {
		st.ExactReason = ExactFreeCoefficients
	}
	e.basis = append([]int(nil), start...)
	if !full || start == nil || !nonnegative(e.lambda()) {
		e.basis = cold // nonsingular by construction, and dual feasible
	}
	s.flp.basis = nil
	if err := e.run(ctx, st); err != nil {
		return nil, nil, err
	}
	if full {
		s.flp.basis = append([]int(nil), e.basis...)
	}
	return e.y[:s.nc], e.basis, nil
}

// boundColumns finds the coefficients the constraints pin. It reduces the
// constraints' power rows to echelon form, eliminating from the highest
// coefficient down: coefficient j is free exactly when no reduced row
// leads at j. It returns the bound coefficients in order, then t, and a
// cold basis over them: the margin cap and the hi row of each constraint
// that added a leading column.
func (s *Solver) boundColumns() (cols, basis []int) {
	nc := s.nc
	piv := make([][]*big.Rat, nc)
	lead := make([]int, nc)
	found := 0
	var f, prod big.Rat
	for k := 0; k < len(s.accepted) && found < nc; k++ {
		row, _ := s.exactRow(2 + 2*k)
		for j := nc - 1; j >= 0; j-- {
			if row[j].Sign() == 0 {
				continue
			}
			if piv[j] == nil {
				piv[j], lead[j] = row, 2+2*k
				found++
				break
			}
			f.Quo(row[j], piv[j][j])
			for i := 0; i <= j; i++ {
				row[i].Sub(row[i], prod.Mul(&f, piv[j][i]))
			}
		}
	}
	basis = []int{0}
	for j := 0; j < nc; j++ {
		if piv[j] != nil {
			cols = append(cols, j)
			basis = append(basis, lead[j])
		}
	}
	return append(cols, nc), basis
}

// row returns LP row i restricted to the basis columns, and its rhs.
func (e *exactLP) row(i int) ([]*big.Rat, *big.Rat) {
	full, b := e.s.exactRow(i)
	a := make([]*big.Rat, len(e.cols))
	for q, j := range e.cols {
		a[q] = full[j]
	}
	return a, b
}

// solve returns z with B·z = rhs, or Bᵀ·z = rhs when transposed, where B
// holds the basis rows; nil when B is singular. rhs is overwritten.
func (e *exactLP) solve(rhs []*big.Rat, transposed bool) []*big.Rat {
	n := len(e.cols)
	a := make([][]*big.Rat, n)
	for k := range a {
		a[k] = make([]*big.Rat, n)
	}
	for k, i := range e.basis {
		row, _ := e.row(i)
		for q, v := range row {
			if transposed {
				a[q][k] = v
			} else {
				a[k][q] = v
			}
		}
	}
	return solveRat(a, rhs)
}

// unit returns the q-th unit vector over the basis columns.
func (e *exactLP) unit(q int) []*big.Rat {
	v := make([]*big.Rat, len(e.cols))
	for k := range v {
		v[k] = new(big.Rat)
	}
	v[q].SetInt64(1)
	return v
}

// lambda returns the basis rows' multipliers for the objective t, the row
// of the basis inverse at t; nil when the basis is singular.
func (e *exactLP) lambda() []*big.Rat { return e.solve(e.unit(len(e.cols)-1), true) }

// nonnegative reports whether v exists and has no negative entry.
func nonnegative(v []*big.Rat) bool {
	if v == nil {
		return false
	}
	for _, x := range v {
		if x.Sign() < 0 {
			return false
		}
	}
	return true
}

// vertex sets y to the basis rows' intersection; free coefficients are 0.
func (e *exactLP) vertex() {
	rhs := make([]*big.Rat, len(e.basis))
	for k, i := range e.basis {
		_, rhs[k] = e.s.exactRow(i)
	}
	z := e.solve(rhs, false)
	e.y = make([]*big.Rat, e.s.nc+1)
	for j := range e.y {
		e.y[j] = new(big.Rat)
	}
	for q, j := range e.cols {
		e.y[j] = z[q]
	}
}

// run takes the basis to the lex-min optimum or an exact verdict.
func (e *exactLP) run(ctx context.Context, st *Stats) error {
	s := e.s
	m := s.flp.rows()
	scale := s.flp.rowScale
	if len(scale) != m {
		scale = nil
	}
	canceled := func() error {
		if ctx != nil && ctx.Err() != nil {
			return &CanceledError{Phase: "exact", Err: ctx.Err()}
		}
		return nil
	}
	// Phase 1: the dual simplex. Dantzig's choice (the most violated row,
	// scaled like the float search) until a long degenerate run, then
	// Bland's rule (lowest row index for both choices), which cannot cycle.
	degenerate := 0
	for {
		if err := canceled(); err != nil {
			return err
		}
		e.vertex()
		if e.y[s.nc].Sign() < 0 {
			// The basis is dual feasible: no point has a larger t.
			return ErrInfeasible
		}
		bland := degenerate > 2*(m+len(e.cols))
		r, worst := -1, 0.0
		s.violations(e.y, func(i int, excess *big.Rat) {
			v := ratFloat(excess)
			if scale != nil {
				v *= scale[i]
			}
			if r < 0 || (!bland && v > worst) {
				r, worst = i, v
			}
		})
		if r < 0 {
			break
		}
		if st.Pivots >= DefaultMaxPivots {
			return &PivotLimitError{Phase: 1, Limit: DefaultMaxPivots}
		}
		a, _ := e.row(r)
		alpha := e.solve(a, true)
		lam := e.lambda()
		k := -1
		var best, ratio big.Rat
		for q, al := range alpha {
			if al.Sign() <= 0 {
				continue
			}
			ratio.Quo(lam[q], al)
			if c := ratio.Cmp(&best); k < 0 || c < 0 || (c == 0 && e.basis[q] < e.basis[k]) {
				k = q
				best.Set(&ratio)
			}
		}
		if k < 0 {
			// No basis row can leave: row r's violation is a Farkas ray.
			return ErrInfeasible
		}
		if best.Sign() == 0 {
			degenerate++
		} else {
			degenerate = 0
		}
		e.basis[k] = r
		st.Pivots++
	}
	// Phase 2: only a zero multiplier leaves the optimum open.
	for {
		k := e.lexNegative()
		if k < 0 {
			return nil
		}
		if err := canceled(); err != nil {
			return err
		}
		if st.Pivots >= DefaultMaxPivots {
			return &PivotLimitError{Phase: 2, Limit: DefaultMaxPivots}
		}
		i := e.ratioTest(k)
		if i < 0 {
			return ErrUnbounded // cannot happen: free coefficients were dropped
		}
		e.basis[k] = i
		st.Pivots++
		e.vertex()
	}
}

// lexNegative returns the basis position, lowest row first (Bland), whose
// multiplier vector under the lexicographic objective (t, -C_0, -C_1, ...)
// is lexicographically negative, or -1 when the basis is lex-optimal. Stage
// q's multipliers are row q of the basis inverse; they are computed only
// while some position with a zero t multiplier is undecided.
func (e *exactLP) lexNegative() int {
	open := map[int]bool{}
	for k, l := range e.lambda() {
		if l.Sign() == 0 {
			open[k] = true
		}
	}
	best := -1
	for q := 0; q < len(e.cols)-1 && len(open) > 0; q++ {
		stage := e.solve(e.unit(q), true)
		for k := range open {
			if sg := stage[k].Sign(); sg != 0 {
				delete(open, k)
				if sg > 0 && (best < 0 || e.basis[k] < e.basis[best]) {
					best = k
				}
			}
		}
	}
	return best
}

// ratioTest moves from the vertex along d, the edge that leaves basis row
// k and keeps the others active, and returns the first row d reaches
// (lowest row index on ties), or -1 when d is unbounded.
func (e *exactLP) ratioTest(k int) int {
	s := e.s
	dq := e.solve(e.unit(k), false)
	d := make([]*big.Rat, s.nc+1)
	for j := range d {
		d[j] = new(big.Rat)
	}
	for q, j := range e.cols {
		d[j].Neg(dq[q])
	}
	inBasis := make(map[int]bool, len(e.basis))
	for _, i := range e.basis {
		inBasis[i] = true
	}
	best := -1
	var bestTheta, theta big.Rat
	consider := func(i int, ad, ay, b *big.Rat) {
		if inBasis[i] || ad.Sign() <= 0 {
			return
		}
		theta.Sub(b, ay)
		theta.Quo(&theta, ad)
		if best < 0 || theta.Cmp(&bestTheta) < 0 {
			best = i
			bestTheta.Set(&theta)
		}
	}
	consider(0, d[s.nc], e.y[s.nc], big.NewRat(1, 1))
	for c := range s.accepted {
		dlo, dhi := s.rowValues(c, d)
		ylo, yhi := s.rowValues(c, e.y)
		consider(1+2*c, dlo, ylo, new(big.Rat).Neg(s.accepted[c].Lo))
		consider(2+2*c, dhi, yhi, s.accepted[c].Hi)
	}
	return best
}
