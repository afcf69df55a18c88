// Package libm is the generated correctly rounded math library: the six
// elementary functions of the paper (e^x, 2^x, 10^x, ln x, log2 x, log10 x),
// each in four variants corresponding to the paper's configurations —
// RLibm (Horner), RLibm-Knuth, RLibm-Estrin and RLibm-Estrin+FMA — for 24
// implementations in total, as in the artifact.
//
// Every variant computes a double-precision value lying in the rounding
// interval of the 34-bit round-to-odd result, so one implementation yields
// correctly rounded results for every floating-point format from 10 to 32
// bits (with an 8-bit exponent) under all five IEEE rounding modes: round
// the returned double to the desired format (fp.Format.Round, or
// PrecSpec.Kernel for the serving precisions).
//
// The implementations are straight-line kernels in zz_generated_funcs.go
// (GeneratedFuncs and its block, batch and vector forms), emitted by
// cmd/rlibm-gen from the table this repository's generator (internal/core)
// produces; see Emit. They are the only evaluator: the table itself is
// compiled only into this package's tests, where a reference interpreter
// runs it against the kernels bit for bit.
package libm

// Scheme selects one of the four generated variants.
type Scheme int

const (
	// SchemeHorner is the RLibm baseline (serial multiply-add chain).
	SchemeHorner Scheme = iota
	// SchemeKnuth uses Knuth's adapted coefficients.
	SchemeKnuth
	// SchemeEstrin uses Estrin's parallel evaluation.
	SchemeEstrin
	// SchemeEstrinFMA combines Estrin's evaluation with fused
	// multiply-adds — the paper's fastest configuration.
	SchemeEstrinFMA
)

// Schemes lists the four variants in the paper's order.
var Schemes = []Scheme{SchemeHorner, SchemeKnuth, SchemeEstrin, SchemeEstrinFMA}

func (s Scheme) String() string {
	switch s {
	case SchemeHorner:
		return "rlibm"
	case SchemeKnuth:
		return "rlibm-knuth"
	case SchemeEstrin:
		return "rlibm-estrin"
	case SchemeEstrinFMA:
		return "rlibm-estrin-fma"
	}
	return "unknown"
}

// FuncNames lists the library's functions in the paper's order, the order
// the generated files keep them in. GeneratedFuncs and its companions are
// keyed by "name/scheme".
var FuncNames = []string{"exp", "exp2", "exp10", "log", "log2", "log10"}
