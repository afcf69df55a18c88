package lp

import (
	"errors"
	"fmt"
)

// Stats describes one solve attempt for the observability layer: the LP
// dimensions, the float and exact pivot counts, and the path the answer
// took. It is returned even on failure, so infeasibility diagnostics carry
// the work done before the verdict.
type Stats struct {
	// Rows and Cols are the dimensions of the inequality form: the margin
	// cap plus a lo and a hi row per accepted constraint, over the nc
	// coefficients and t.
	Rows, Cols int
	// FloatPivots counts the float64 dual-simplex pivots that searched for
	// an optimal basis before the exact certificate. They are cheap and not
	// part of Pivots.
	FloatPivots int
	// ForcedRows counts the rows the exact certificate found violated,
	// though the float slack said they held, and forced into the float
	// basis before the search resumed.
	ForcedRows int
	// Pivots counts the big.Rat pivots of the exact continuation. A
	// certified solve has none.
	Pivots int
	// Warm reports that the float search started from the previous solve's
	// optimal basis.
	Warm bool
	// Certified reports that the float basis passed the exact certificate,
	// so the coefficients came without the exact continuation.
	Certified bool
	// ExactReason says why the answer did not come from a certified float
	// basis; ExactNone on a certified solve and on a cancellation during the
	// float search.
	ExactReason ExactReason
}

// ExactReason names why a solve left the certified float path.
type ExactReason uint8

const (
	// ExactNone: the float basis certified, or the float search was
	// canceled before any verdict.
	ExactNone ExactReason = iota
	// ExactFloatSingular: the float search had no nonsingular basis, or
	// the rows have no finite float image.
	ExactFloatSingular
	// ExactFloatNoEntering: the float ratio test found no basis position
	// for a violated row (a float "infeasible" verdict).
	ExactFloatNoEntering
	// ExactFloatPivotBudget: the float search ran out of pivots.
	ExactFloatPivotBudget
	// ExactCertificate: the float optimum failed the exact certificate: a
	// negative or zero multiplier, or a row still violated after the
	// forced-row rounds.
	ExactCertificate
	// ExactFreeCoefficients: the constraints leave some coefficient free;
	// the free ones are 0.
	ExactFreeCoefficients
	// ExactInfeasible: a dual-feasible float basis proved exactly that the
	// best margin is negative. It is the last reason; callers size
	// per-reason tables by it.
	ExactInfeasible
)

var exactReasonNames = [...]string{"none", "float-singular", "float-no-entering",
	"float-pivot-budget", "certificate", "free-coefficients", "infeasible"}

func (r ExactReason) String() string {
	if int(r) < len(exactReasonNames) {
		return exactReasonNames[r]
	}
	return fmt.Sprintf("ExactReason(%d)", r)
}

// DefaultMaxPivots bounds the exact pivots per solve. The exact
// continuation starts from a float basis and pivots a handful of times; a
// run beyond this bound means degenerate cycling or a pathological
// instance, and an exact-rational pivot chain that long would effectively
// hang the pipeline anyway.
const DefaultMaxPivots = 100000

// ErrInfeasible reports that no polynomial meets every interval: the best
// margin t is negative, or the rows admit no point at all.
var ErrInfeasible = errors.New("lp: infeasible (no polynomial meets every interval)")

// ErrUnbounded reports that the objective can decrease without bound.
var ErrUnbounded = errors.New("lp: unbounded objective")

// PivotLimitError reports that a solve exceeded its pivot budget — the
// guard against degenerate cycling.
type PivotLimitError struct {
	// Phase is the stage that hit the limit: 1 while maximizing the margin,
	// 2 while pinning the coefficients.
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
	// Phase names the stage that observed the cancellation: "float" or
	// "exact".
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
