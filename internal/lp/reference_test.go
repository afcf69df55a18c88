package lp

import "math/big"

// refTableau is the reference the Solver is tested against: a dense
// big.Rat simplex tableau in standard form (every variable >= 0), solved by
// the cold two-phase method and pinned to the lex-min optimum by
// canonicalize. It shares no code with the Solver's float search or exact
// continuation.
type refTableau struct {
	m, n int         // constraint rows, columns (excluding the rhs column)
	rows [][]big.Rat // m rows, each of length n+1; index n is the rhs
	obj  []big.Rat   // active objective row (rhs = negated objective)
	// lex holds earlier objective rows kept in sync through pivots during
	// canonicalization: an entering column must price to zero in every one
	// of them, which confines later stages to the optimal face.
	lex       [][]big.Rat
	basis     []int  // basic variable per row
	forbidden []bool // columns barred from entering
}

// refStats counts the reference's pivots per phase.
type refStats struct {
	Rows, Cols                              int
	Phase1Pivots, Phase2Pivots, CanonPivots int
	// Canonical reports that every canonicalization stage was bounded, so
	// the coefficients are the lex-min optimum.
	Canonical bool
}

func newRefTableau(m, n int) *refTableau {
	t := &refTableau{m: m, n: n, basis: make([]int, m), forbidden: make([]bool, n)}
	t.rows = make([][]big.Rat, m)
	for i := range t.rows {
		t.rows[i] = make([]big.Rat, n+1)
	}
	t.obj = make([]big.Rat, n+1)
	return t
}

// pivot performs a tableau pivot on (r, c), updating every row, the
// active objective and the lex stack.
func (t *refTableau) pivot(r, c int) {
	row := t.rows[r]
	var p, f, prod big.Rat
	p.Set(&row[c])
	var nz []int
	for j := 0; j <= t.n; j++ {
		if row[j].Sign() != 0 {
			row[j].Quo(&row[j], &p)
			nz = append(nz, j)
		}
	}
	update := func(dst []big.Rat) {
		if dst[c].Sign() == 0 {
			return
		}
		f.Set(&dst[c])
		for _, j := range nz {
			dst[j].Sub(&dst[j], prod.Mul(&f, &row[j]))
		}
	}
	for i := 0; i < t.m; i++ {
		if i != r {
			update(t.rows[i])
		}
	}
	update(t.obj)
	for i := range t.lex {
		update(t.lex[i])
	}
	t.basis[r] = c
}

type iterStatus int

const (
	iterOptimal iterStatus = iota
	iterUnbounded
	iterPivotLimit
)

// iterLimits carries the pivot budget through a run of iterations.
type iterLimits struct {
	pivots *int
	limit  int
}

// primal runs primal simplex iterations on the active objective: Dantzig's
// rule, then Bland's after a long degenerate run. With lexRestrict only
// columns pricing to zero in every lex-stack row may enter.
func (t *refTableau) primal(lim *iterLimits, lexRestrict bool) iterStatus {
	degenerate := 0
	var a, b big.Rat
	for {
		bland := degenerate > 2*(t.m+t.n)
		col := -1
		for j := 0; j < t.n; j++ {
			if t.forbidden[j] || t.obj[j].Sign() >= 0 || (lexRestrict && !t.lexZero(j)) {
				continue
			}
			if col < 0 || (!bland && t.obj[j].Cmp(&t.obj[col]) < 0) {
				col = j
			}
		}
		if col < 0 {
			return iterOptimal
		}
		if *lim.pivots >= lim.limit {
			return iterPivotLimit
		}
		// Ratio test, ties by the lowest basic variable (Bland).
		row := -1
		for i := 0; i < t.m; i++ {
			if t.rows[i][col].Sign() <= 0 {
				continue
			}
			if row < 0 {
				row = i
				continue
			}
			a.Mul(&t.rows[i][t.n], &t.rows[row][col])
			b.Mul(&t.rows[row][t.n], &t.rows[i][col])
			if c := a.Cmp(&b); c < 0 || (c == 0 && t.basis[i] < t.basis[row]) {
				row = i
			}
		}
		if row < 0 {
			return iterUnbounded
		}
		if t.rows[row][t.n].Sign() == 0 {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(row, col)
		*lim.pivots++
	}
}

func (t *refTableau) lexZero(j int) bool {
	for i := range t.lex {
		if t.lex[i][j].Sign() != 0 {
			return false
		}
	}
	return true
}

// solution returns the value of variable j at the current basis.
func (t *refTableau) solution(j int) *big.Rat {
	for i := 0; i < t.m; i++ {
		if t.basis[i] == j {
			return new(big.Rat).Set(&t.rows[i][t.n])
		}
	}
	return new(big.Rat)
}

// setObjective installs cost as the active objective and prices out the
// basic variables.
func (t *refTableau) setObjective(cost []big.Rat) {
	for j := 0; j <= t.n; j++ {
		t.obj[j].SetInt64(0)
		if j < len(cost) {
			t.obj[j].Set(&cost[j])
		}
	}
	var f, prod big.Rat
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if t.obj[b].Sign() == 0 {
			continue
		}
		f.Set(&t.obj[b])
		for j := 0; j <= t.n; j++ {
			t.obj[j].Sub(&t.obj[j], prod.Mul(&f, &t.rows[i][j]))
		}
	}
}

// twoPhase minimizes cost over a tableau whose last m columns are reserved
// for artificials: phase 1 minimizes their sum, drives basic ones out, and
// phase 2 minimizes cost with the artificials forbidden.
func (t *refTableau) twoPhase(cost []big.Rat, maxPivots int, st *refStats) error {
	structN := t.n - t.m
	for i := 0; i < t.m; i++ {
		if t.rows[i][t.n].Sign() < 0 {
			for j := 0; j <= t.n; j++ {
				t.rows[i][j].Neg(&t.rows[i][j])
			}
		}
		t.rows[i][structN+i].SetInt64(1)
		t.basis[i] = structN + i
	}
	phase1 := make([]big.Rat, t.n)
	for j := structN; j < t.n; j++ {
		phase1[j].SetInt64(1)
	}
	t.setObjective(phase1)
	lim := iterLimits{pivots: &st.Phase1Pivots, limit: maxPivots}
	if t.primal(&lim, false) == iterPivotLimit {
		return &PivotLimitError{Phase: 1, Limit: maxPivots}
	}
	if t.obj[t.n].Sign() != 0 {
		return ErrInfeasible
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < structN {
			continue
		}
		for j := 0; j < structN; j++ {
			if !t.forbidden[j] && t.rows[i][j].Sign() != 0 {
				t.pivot(i, j)
				st.Phase1Pivots++
				break
			}
		}
	}
	for j := structN; j < t.n; j++ {
		t.forbidden[j] = true
	}
	t.setObjective(cost)
	lim = iterLimits{pivots: &st.Phase2Pivots, limit: maxPivots - st.Phase1Pivots}
	switch t.primal(&lim, false) {
	case iterPivotLimit:
		return &PivotLimitError{Phase: 2, Limit: maxPivots}
	case iterUnbounded:
		return ErrUnbounded
	}
	return nil
}

// canonicalize pins the coefficients c_j = z_{2j} - z_{2j+1} to the
// lex-min point of the optimal face, minimizing them in order with every
// earlier objective held at its optimum. Coefficients whose columns are
// forbidden are skipped. It returns the status of the last stage run and,
// when that stage was unbounded, its coefficient.
func (t *refTableau) canonicalize(nc int, lim *iterLimits) (iterStatus, int) {
	t.lex = [][]big.Rat{cloneRow(t.obj)}
	for j := 0; j < nc; j++ {
		if t.forbidden[2*j] {
			continue
		}
		cost := make([]big.Rat, 2*j+2)
		cost[2*j].SetInt64(1)
		cost[2*j+1].SetInt64(-1)
		t.setObjective(cost)
		if status := t.primal(lim, true); status != iterOptimal {
			return status, j
		}
		t.lex = append(t.lex, cloneRow(t.obj))
	}
	return iterOptimal, -1
}

func cloneRow(row []big.Rat) []big.Rat {
	out := make([]big.Rat, len(row))
	for j := range row {
		out[j].Set(&row[j])
	}
	return out
}

// refSolve solves degree's margin LP over cons (after the Solver's own
// dominance pruning) on the reference tableau, with at most maxPivots
// pivots per two-phase solve. Where a canonicalization stage finds its
// coefficient free, the reference fixes it at 0 and solves again, so a
// Canonical answer follows the same rule as Resolve. It returns the
// coefficients and the optimal margin t. A crossed constraint (Lo > Hi) is
// an empty interval, infeasible before any pivot: the tableau's row form,
// with its negative margin weight, would otherwise admit the midpoint.
func refSolve(degree int, cons []Constraint, maxPivots int) ([]*big.Rat, *big.Rat, refStats, error) {
	s := NewSolver(Options{Degree: degree})
	s.AddConstraints(cons...)
	for _, c := range s.accepted {
		if c.Lo.Cmp(c.Hi) > 0 {
			return nil, nil, refStats{}, ErrInfeasible
		}
	}
	fixed := make([]bool, s.nc)
	for {
		coeffs, t, st, free, err := refSolveFixed(s.nc, s.accepted, maxPivots, fixed)
		if err != nil || free < 0 {
			return coeffs, t, st, err
		}
		fixed[free] = true
	}
}

// refSolveFixed is one reference solve with the fixed coefficients held at
// 0. free names the coefficient of an unbounded canonicalization stage
// (-1 when there was none). Layout: columns [c+_0 c-_0 .. c+_d c-_d][t]
// [one slack per row][one artificial per row]; rows [t <= 1][lo,hi pair
// per constraint] in the surplus form P - w*t - s = Lo, P + w*t + s = Hi.
func refSolveFixed(nc int, cons []Constraint, maxPivots int, fixed []bool) ([]*big.Rat, *big.Rat, refStats, int, error) {
	m := 2*len(cons) + 1
	n := 2*nc + 1 + m
	tVar, slack0 := 2*nc, 2*nc+1
	tb := newRefTableau(m, n+m)
	tb.rows[0][tVar].SetInt64(1)
	tb.rows[0][slack0].SetInt64(1)
	tb.rows[0][n+m].SetInt64(1)
	for k := range cons {
		c := &cons[k]
		lo, hi := tb.rows[1+2*k], tb.rows[2+2*k]
		pow := big.NewRat(1, 1)
		for j := 0; j < nc; j++ {
			lo[2*j].Set(pow)
			lo[2*j+1].Neg(pow)
			hi[2*j].Set(pow)
			hi[2*j+1].Neg(pow)
			pow.Mul(pow, c.X)
		}
		w := new(big.Rat).Sub(c.Hi, c.Lo)
		w.Mul(w, big.NewRat(1, 2))
		hi[tVar].Set(w)
		lo[tVar].Neg(w)
		lo[slack0+1+2*k].SetInt64(-1)
		hi[slack0+2+2*k].SetInt64(1)
		lo[n+m].Set(c.Lo)
		hi[n+m].Set(c.Hi)
	}
	for j, f := range fixed {
		tb.forbidden[2*j], tb.forbidden[2*j+1] = f, f
	}
	cost := make([]big.Rat, n)
	cost[tVar].SetInt64(-1) // maximize t
	st := refStats{Rows: m, Cols: n}
	if err := tb.twoPhase(cost, maxPivots, &st); err != nil {
		return nil, nil, st, -1, err
	}
	lim := iterLimits{pivots: &st.CanonPivots, limit: DefaultMaxPivots}
	status, free := tb.canonicalize(nc, &lim)
	st.Canonical = status == iterOptimal
	coeffs := make([]*big.Rat, nc)
	for j := range coeffs {
		coeffs[j] = new(big.Rat).Sub(tb.solution(2*j), tb.solution(2*j+1))
	}
	if status != iterUnbounded {
		free = -1
	}
	return coeffs, tb.solution(tVar), st, free, nil
}
