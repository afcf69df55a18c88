package lp

import (
	"context"
	"math/big"
)

// Options configures a Solver.
type Options struct {
	// Degree is the polynomial degree: the solver owns Degree+1 coefficient
	// variables. SetDegree changes it later (resetting all state).
	Degree int
	// MaxPivots bounds the exact tableau pivots per Resolve; <= 0 selects
	// DefaultMaxPivots. The canonicalization pass runs under its own
	// DefaultMaxPivots budget so that a tight MaxPivots limits work without
	// changing which solutions are reachable. The float simplex has its own
	// bound and falls back to the tableau when it runs out.
	MaxPivots int
	// WarmStart keeps the optimal basis alive between Resolve calls (the
	// float basis and the exact tableau) and reoptimizes with the dual
	// simplex instead of solving from scratch. The returned coefficients are
	// bit-identical either way (see canonicalize and certify); warm starts
	// only change how much work a resolve costs.
	WarmStart bool
}

// Result is the outcome of a Resolve.
type Result struct {
	// Coeffs are the exact rational polynomial coefficients C_0..C_d
	// (nil on error).
	Coeffs []*big.Rat
	// Stats describes the work done, including on failure.
	Stats Stats
	// Basis is the optimal basis, the state a warm restart resumes from:
	// the active LP rows of a certified solve, or the basic variable per
	// tableau row of an exact one. Diagnostic only.
	Basis []int
}

// bounds tracks the componentwise-tightest interval accepted for one
// reduced input, the key to dominance pruning.
type bounds struct{ lo, hi *big.Rat }

// Solver is the incremental LP engine behind the generator's
// generate–check–constrain loop. It accumulates interval constraints with
// AddConstraints (pruning dominated ones) and solves the margin-maximizing
// polynomial LP with Resolve. With WarmStart enabled the optimal tableau
// survives between calls: newly added or tightened constraints enter as
// appended rows and a dual-simplex pass reoptimizes from the previous
// basis, which is typically far cheaper than the cold two-phase solve.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	opts Options
	nc   int // coefficient count = Degree+1

	accepted []Constraint       // constraints admitted to the LP, in order
	tight    map[string]*bounds // tightest accepted bounds per X (RatString key)
	stale    int                // accepted row-pairs superseded by a tighter one

	flp    *floatLP // float image of the accepted rows (nil until first solve)
	tab    *tableau // live optimal tableau (nil until first exact solve)
	inTab  int      // accepted[:inTab] have rows in tab
	warmOK bool     // tab is optimal+canonical and safe to warm-start from

	exactOnly bool // skip the float path (tests compare the two)
}

// NewSolver returns a Solver for polynomials of opts.Degree.
func NewSolver(opts Options) *Solver {
	if opts.Degree < 0 {
		opts.Degree = 0
	}
	return &Solver{opts: opts, nc: opts.Degree + 1, tight: make(map[string]*bounds)}
}

// SetDegree changes the polynomial degree. Any accumulated constraints and
// warm-start state are discarded (the variable space changes shape).
func (s *Solver) SetDegree(d int) {
	if d < 0 {
		d = 0
	}
	if d+1 == s.nc {
		return
	}
	s.opts.Degree = d
	s.nc = d + 1
	s.Reset()
}

// Reset discards all accumulated constraints and warm-start state.
func (s *Solver) Reset() {
	s.accepted = nil
	s.tight = make(map[string]*bounds)
	s.stale = 0
	s.flp = nil
	s.tab = nil
	s.inTab = 0
	s.warmOK = false
}

func (s *Solver) maxPivots() int {
	if s.opts.MaxPivots <= 0 {
		return DefaultMaxPivots
	}
	return s.opts.MaxPivots
}

// AddConstraints admits constraints to the LP, pruning any that are
// dominated by bounds already accepted for the same reduced input (they
// would add a redundant row pair to the tableau). Constraints are deep-
// copied; callers may reuse their rationals. Returns how many were
// accepted.
func (s *Solver) AddConstraints(cons ...Constraint) int {
	if s.tight == nil {
		s.tight = make(map[string]*bounds)
	}
	n := 0
	for i := range cons {
		c := &cons[i]
		key := c.key()
		b := s.tight[key]
		if b != nil && c.Lo.Cmp(b.lo) <= 0 && c.Hi.Cmp(b.hi) >= 0 {
			continue // dominated: no new information
		}
		s.accepted = append(s.accepted, Constraint{
			X:      new(big.Rat).Set(c.X),
			Lo:     new(big.Rat).Set(c.Lo),
			Hi:     new(big.Rat).Set(c.Hi),
			Prefix: c.Prefix,
		})
		n++
		if b == nil {
			s.tight[key] = &bounds{lo: new(big.Rat).Set(c.Lo), hi: new(big.Rat).Set(c.Hi)}
			continue
		}
		// Tightens (or crosses) the previous bounds: the earlier rows for
		// this input are now partly redundant. They stay in the tableau —
		// the tighter interval implies them at t=0, so they can only lower
		// the optimal margin, never flip feasibility — until the stale
		// count triggers a cold rebuild (see Solve).
		if c.Lo.Cmp(b.lo) > 0 {
			b.lo.Set(c.Lo)
		}
		if c.Hi.Cmp(b.hi) < 0 {
			b.hi.Set(c.Hi)
		}
		s.stale++
	}
	return n
}

// Solve reconciles the solver's state with cons — the caller's complete
// current constraint set — and resolves. Constraints that only restate or
// tighten accepted bounds ride the warm path; a constraint set that DROPS
// a previously seen input (the generator demoting it to a special case) or
// loosens its bounds invalidates the accumulated rows, so the solver
// resets and solves cold. A cold rebuild is also forced when stale
// superseded rows outnumber the live inputs, which bounds tableau growth
// across many tighten iterations.
func (s *Solver) Solve(ctx context.Context, cons []Constraint) (Result, error) {
	if len(s.accepted) > 0 {
		reset := s.stale > len(s.tight)
		if !reset {
			seen := make(map[string]bool, len(cons))
			for i := range cons {
				key := cons[i].key()
				seen[key] = true
				if b, ok := s.tight[key]; ok {
					if cons[i].Lo.Cmp(b.lo) < 0 || cons[i].Hi.Cmp(b.hi) > 0 {
						reset = true // loosened: accumulated rows over-constrain
						break
					}
				}
			}
			if !reset {
				for key := range s.tight {
					if !seen[key] {
						reset = true // input removed (demoted)
						break
					}
				}
			}
		}
		if reset {
			s.Reset()
		}
	}
	s.AddConstraints(cons...)
	return s.Resolve(ctx)
}

// Resolve solves the LP over the accepted constraints: maximize the
// uniform relative margin t (capped at 1) by which P(X_i) clears each
// interval's edges, then canonicalize to the lex-min optimal coefficients.
//
// A float64 simplex runs first (see floatResolve). When its basis passes the
// exact certificate, the optimum is unique and is returned directly: it is
// the point canonicalize would pin. Otherwise the exact tableau solves the
// LP, reusing the previous tableau when possible; any warm-path trouble
// short of an exact verdict falls back to a cold solve, so the coefficients
// are identical on every path.
func (s *Solver) Resolve(ctx context.Context) (Result, error) {
	var fst Stats
	if !s.exactOnly {
		res, ok, err := s.floatResolve(ctx)
		if ok || err != nil {
			return res, err
		}
		fst = res.Stats
	}
	res, err := s.exactResolve(ctx)
	res.Stats.FloatPivots, res.Stats.ForcedRows = fst.FloatPivots, fst.ForcedRows
	res.Stats.Exact = true
	return res, err
}

// exactResolve solves the LP on the exact tableau.
func (s *Solver) exactResolve(ctx context.Context) (Result, error) {
	if s.opts.WarmStart && s.warmOK && s.tab != nil {
		res, err, handled := s.warmResolve(ctx)
		if handled {
			return res, err
		}
	}
	return s.coldResolve(ctx)
}

// polyRow writes the lo/hi constraint rows for c into loRow/hiRow (each of
// length width+1, rhs at width; both rows must arrive zeroed). Orientation
// is chosen by negLo: the cold build uses the surplus form P - w*t - s = Lo;
// warm appends need the slack's +1 coefficient, so the row is negated:
// -P + w*t + s = -Lo. A prefix constraint leaves the columns of its excluded
// trailing coefficients at zero, so they do not participate in the bound.
func (s *Solver) polyRow(c *Constraint, loRow, hiRow []sc, width int, negLo bool) {
	nc := s.nc
	tVar := 2 * nc
	w := new(big.Rat).Sub(c.Hi, c.Lo)
	w.Mul(w, big.NewRat(1, 2))
	pow := new(big.Rat).SetInt64(1)
	var v sc
	for j := 0; j < c.prefixCount(nc); j++ {
		v.setRat(pow)
		hiRow[2*j].set(&v)
		if negLo {
			loRow[2*j+1].set(&v)
		} else {
			loRow[2*j].set(&v)
		}
		v.neg()
		hiRow[2*j+1].set(&v)
		if negLo {
			loRow[2*j].set(&v)
		} else {
			loRow[2*j+1].set(&v)
		}
		pow.Mul(pow, c.X)
	}
	v.setRat(w)
	hiRow[tVar].set(&v)
	if negLo {
		loRow[tVar].set(&v)
	} else {
		v.neg()
		loRow[tVar].set(&v)
	}
	v.setRat(c.Hi)
	hiRow[width].set(&v)
	v.setRat(c.Lo)
	if negLo {
		v.neg()
	}
	loRow[width].set(&v)
}

// coldResolve builds the tableau from scratch and runs the two-phase
// method, then canonicalizes. Layout: columns [c+_0 c-_0 .. c+_d c-_d][t]
// [one slack per row]; rows [t <= 1][lo,hi pair per accepted constraint].
func (s *Solver) coldResolve(ctx context.Context) (Result, error) {
	nc := s.nc
	m := 2*len(s.accepted) + 1
	n := 2*nc + 1 + m
	tVar := 2 * nc
	slack0 := 2*nc + 1
	tb := newTableau(m, n)
	// Margin cap: t + s = 1.
	tb.rows[0][tVar].setInt64(1)
	tb.rows[0][slack0].setInt64(1)
	tb.rows[0][n].setInt64(1)
	for k := range s.accepted {
		lo, hi := 1+2*k, 2+2*k
		s.polyRow(&s.accepted[k], tb.rows[lo], tb.rows[hi], n, false)
		tb.rows[lo][slack0+lo].setInt64(-1)
		tb.rows[hi][slack0+hi].setInt64(1)
	}
	cost := make([]sc, n)
	cost[tVar].setInt64(-1) // maximize t
	var st Stats
	st.Rows, st.Cols = m, n
	s.tab, s.warmOK = nil, false
	if err := tb.twoPhase(ctx, cost, s.maxPivots(), &st); err != nil {
		return Result{Stats: st}, err
	}
	tb.compactArtificials(n)
	canonLim := iterLimits{pivots: &st.CanonPivots, limit: DefaultMaxPivots, ctx: ctx}
	switch tb.canonicalize(nc, &canonLim) {
	case iterCanceled:
		return Result{Stats: st}, &CanceledError{Phase: "canonicalize", Err: canonLim.err}
	case iterOptimal:
		st.Canonical = true
	default:
		// A canonicalization stage was unbounded (an under-determined
		// system leaves a coefficient free on the optimal face) or hit its
		// budget. The phase-2 optimum is still returned — deterministic for
		// a given constraint sequence — but the basis is path-dependent, so
		// warm restarts from it are not attempted.
	}
	s.inTab = len(s.accepted)
	s.tab = tb
	s.warmOK = st.Canonical
	return s.extract(st), nil
}

// warmResolve appends rows for the constraints accepted since the last
// solve and reoptimizes from the previous basis with the dual simplex.
// handled=false means the caller should fall back to a cold solve (pivot
// budget or canonicalization trouble — never an exact verdict, so the
// fallback preserves bit-identical results).
func (s *Solver) warmResolve(ctx context.Context) (res Result, err error, handled bool) {
	tb := s.tab
	fresh := s.accepted[s.inTab:]
	var st Stats
	st.Warm = true
	if len(fresh) > 0 {
		base := tb.n
		tb.addColumns(2 * len(fresh))
		for k := range fresh {
			loSlack, hiSlack := base+2*k, base+2*k+1
			loRow := make([]sc, tb.n+1)
			hiRow := make([]sc, tb.n+1)
			s.polyRow(&fresh[k], loRow, hiRow, tb.n, true)
			loRow[loSlack].setInt64(1)
			hiRow[hiSlack].setInt64(1)
			// Bring the new rows into canonical form: their rhs becomes the
			// (possibly negative) value of their slack at the current basis.
			tb.eliminateBasics(loRow, -1)
			tb.addRow(loRow, loSlack)
			tb.eliminateBasics(hiRow, tb.m-1)
			tb.addRow(hiRow, hiSlack)
		}
	}
	s.inTab = len(s.accepted)
	st.Rows, st.Cols = tb.m, tb.n
	lim := iterLimits{pivots: &st.DualPivots, limit: s.maxPivots(), ctx: ctx}
	switch tb.dual(&lim) {
	case iterPivotLimit:
		s.tab, s.warmOK = nil, false
		return Result{}, nil, false
	case iterCanceled:
		s.tab, s.warmOK = nil, false
		return Result{Stats: st}, &CanceledError{Phase: "dual", Err: lim.err}, true
	case iterInfeasible:
		// Exact verdict: a negative row with no negative entry certifies
		// the system infeasible, same as a positive phase-1 optimum.
		s.tab, s.warmOK = nil, false
		return Result{Stats: st}, ErrInfeasible, true
	}
	canonLim := iterLimits{pivots: &st.CanonPivots, limit: DefaultMaxPivots, ctx: ctx}
	switch tb.canonicalize(s.nc, &canonLim) {
	case iterCanceled:
		s.tab, s.warmOK = nil, false
		return Result{Stats: st}, &CanceledError{Phase: "canonicalize", Err: canonLim.err}, true
	case iterOptimal:
		st.Canonical = true
	default:
		s.tab, s.warmOK = nil, false
		return Result{}, nil, false
	}
	return s.extract(st), nil, true
}

// extract reads the coefficients and basis off the optimal tableau.
func (s *Solver) extract(st Stats) Result {
	tb := s.tab
	res := Result{Stats: st, Basis: append([]int(nil), tb.basis...)}
	res.Coeffs = make([]*big.Rat, s.nc)
	for j := 0; j < s.nc; j++ {
		zp := tb.solution(2 * j)
		zm := tb.solution(2*j + 1)
		res.Coeffs[j] = new(big.Rat).Sub(zp.rat(), zm.rat())
	}
	return res
}
