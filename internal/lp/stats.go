package lp

import (
	"errors"
	"fmt"
)

// Stats describes one solve attempt for the observability layer: the
// tableau dimensions and the per-phase pivot counts. It is returned even on
// failure, so infeasibility diagnostics carry the work done before the
// verdict.
type Stats struct {
	// Rows and Cols are the standard-form tableau dimensions: constraint
	// rows and structural (non-artificial) columns.
	Rows, Cols int
	// Phase1Pivots counts the feasibility-phase pivots (including the
	// artificial-variable drive-out); Phase2Pivots counts the optimization
	// phase. Both are zero on a warm-started resolve, which skips the
	// two-phase method entirely.
	Phase1Pivots, Phase2Pivots int
	// DualPivots counts the dual-simplex pivots of a warm-started resolve
	// (reoptimization from the previous optimal basis).
	DualPivots int
	// CanonPivots counts the lexicographic-canonicalization pivots that pin
	// the solution to the unique lex-min optimum (run under its own budget,
	// not charged against MaxPivots).
	CanonPivots int
	// FloatPivots counts the float64 dual-simplex pivots that searched for
	// an optimal basis before the exact certificate. They are cheap and not
	// part of Pivots.
	FloatPivots int
	// ForcedRows counts the rows the exact certificate found violated,
	// though the float slack said they held, and forced into the float
	// basis before the search resumed.
	ForcedRows int
	// Warm reports that this solve reused the previous optimal basis (the
	// float basis on a certified solve, the exact tableau otherwise).
	Warm bool
	// Certified reports that the float basis passed the exact certificate,
	// so the coefficients came without a tableau.
	Certified bool
	// Exact reports that the exact tableau ran and produced the result or
	// the error. It is false on a certified solve and on a cancellation
	// during the float search.
	Exact bool
	// Canonical reports that the canonicalization pass completed, making
	// the returned coefficients independent of the pivot path taken. A
	// certified solve is canonical: its optimum is unique.
	Canonical bool
}

// Pivots returns the exact big.Rat pivot count across all tableau phases,
// including warm-start reoptimization and canonicalization. Float pivots
// are counted separately in FloatPivots.
func (s Stats) Pivots() int {
	return s.Phase1Pivots + s.Phase2Pivots + s.DualPivots + s.CanonPivots
}

// DefaultMaxPivots bounds the simplex pivots per solve. The generator's
// systems pivot tens to hundreds of times; a run beyond this bound means
// degenerate cycling or a pathological instance, and an exact-rational
// pivot chain that long would effectively hang the pipeline anyway.
const DefaultMaxPivots = 100000

// ErrInfeasible reports that phase 1 terminated with a positive optimum:
// no point satisfies all constraints.
var ErrInfeasible = errors.New("lp: infeasible (phase-1 optimum is positive)")

// ErrUnbounded reports that the objective can decrease without bound.
var ErrUnbounded = errors.New("lp: unbounded objective")

// PivotLimitError reports that a solve exceeded its pivot budget — the
// guard against degenerate cycling under the Dantzig/Bland hybrid rule.
type PivotLimitError struct {
	// Phase is the simplex phase (1 or 2) that hit the limit.
	Phase int
	// Limit is the budget that was exhausted.
	Limit int
}

func (e *PivotLimitError) Error() string {
	return fmt.Sprintf("lp: phase-%d simplex exceeded the %d-pivot limit (degenerate cycling guard)",
		e.Phase, e.Limit)
}

// CanceledError reports that a solve was interrupted by its
// context.Context before reaching a verdict. It wraps the context error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded work.
type CanceledError struct {
	// Phase names the stage that observed the cancellation: "float",
	// "phase1", "phase2", "dual", or "canonicalize".
	Phase string
	// Err is the context's error.
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("lp: solve canceled during %s: %v", e.Phase, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// InfeasibilityCause classifies err for metrics labels: "infeasible",
// "unbounded", "pivot-limit", "canceled", or "" for nil/unrecognized
// errors.
func InfeasibilityCause(err error) string {
	var pl *PivotLimitError
	var ce *CanceledError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	case errors.As(err, &pl):
		return "pivot-limit"
	case errors.As(err, &ce):
		return "canceled"
	}
	return ""
}
