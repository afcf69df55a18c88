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
}

// Result is the outcome of a Resolve.
type Result struct {
	// Coeffs are the exact rational polynomial coefficients C_0..C_d
	// (nil on error).
	Coeffs []*big.Rat
	// Stats describes the work done, including on failure.
	Stats Stats
	// Basis is the optimal basis, the state a warm restart resumes from:
	// one active LP row per coefficient the constraints pin, plus one for
	// t. Diagnostic only.
	Basis []int
}

// bounds tracks the componentwise-tightest interval accepted for one
// reduced input, the key to dominance pruning.
type bounds struct{ lo, hi *big.Rat }

// Solver is the incremental LP engine behind the generator's
// generate–check–constrain loop. It accumulates interval constraints with
// AddConstraints (pruning dominated ones) and solves the margin-maximizing
// polynomial LP with Resolve. The optimal basis survives between calls:
// newly added or tightened constraints enter as appended rows and the float
// dual simplex reoptimizes from the previous basis.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	opts Options
	nc   int // coefficient count = Degree+1

	accepted []Constraint       // constraints admitted to the LP, in order
	tight    map[string]*bounds // tightest accepted bounds per X (RatString key)
	stale    int                // accepted row-pairs superseded by a tighter one

	flp *floatLP // float image of the accepted rows (nil until first solve)
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
}

// AddConstraints admits constraints to the LP, pruning any that are
// dominated by bounds already accepted for the same reduced input (they
// would add a redundant row pair to the LP). Constraints are deep-
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
			X:  new(big.Rat).Set(c.X),
			Lo: new(big.Rat).Set(c.Lo),
			Hi: new(big.Rat).Set(c.Hi),
		})
		n++
		if b == nil {
			s.tight[key] = &bounds{lo: new(big.Rat).Set(c.Lo), hi: new(big.Rat).Set(c.Hi)}
			continue
		}
		// Tightens (or crosses) the previous bounds: the earlier rows for
		// this input are now partly redundant. They stay in the LP —
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
// superseded rows outnumber the live inputs, which bounds the LP's growth
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
// interval's edges, and return the lex-min optimum: among the points with
// the best t, the least C_0, then the least C_1, and so on, with a
// coefficient the constraints leave free set to 0. A negative best t, or a
// crossed constraint, means no polynomial meets every interval:
// ErrInfeasible.
//
// A float64 simplex runs first (see floatResolve). When its basis passes the
// exact certificate, the optimum is unique and is returned directly.
// Otherwise the exact continuation (exactResolve) carries the same basis on
// in big.Rat to the lex-min point or an exact verdict, so every path
// returns the same coefficients.
func (s *Solver) Resolve(ctx context.Context) (Result, error) {
	if s.flp == nil {
		s.flp = newFloatLP(s.nc)
	}
	f := s.flp
	for k := len(f.xs); k < len(s.accepted); k++ {
		f.addConstraint(&s.accepted[k])
	}
	st := Stats{Rows: f.rows(), Cols: f.n}
	for k := range s.accepted {
		// A crossed interval is empty. Its rows, with a negative margin
		// weight (Hi-Lo)/2, would admit its midpoint at t = 1.
		if c := &s.accepted[k]; c.Lo.Cmp(c.Hi) > 0 {
			return Result{Stats: st}, ErrInfeasible
		}
	}
	coeffs, basis, err := s.floatResolve(ctx, &st)
	if coeffs == nil && err == nil {
		coeffs, basis, err = s.exactResolve(ctx, basis, &st)
	}
	if err != nil {
		return Result{Stats: st}, err
	}
	return Result{Coeffs: coeffs, Stats: st, Basis: append([]int(nil), basis...)}, nil
}
