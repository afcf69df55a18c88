// Package oracle provides correctly rounded values of the six elementary
// functions the paper evaluates (e^x, 2^x, 10^x, ln x, log2 x, log10 x) for
// any supported floating-point format and rounding mode, including
// round-to-odd.
//
// The paper's prototype uses MPFR; this package plays that role with a
// Ziv-style loop: evaluate with a bounded relative error, check whether the
// error interval rounds unambiguously, and retry with more precision
// otherwise. The first rung is a double-double evaluation in float64
// arithmetic (rung.go) that settles almost every query; the rest run on
// math/big from 80 bits up. Inputs whose exact result is a rational number
// (exp2 of an integer, log2 of a power of two, ...) are detected
// algebraically and rounded exactly, which is what makes the loop terminate
// for every input.
package oracle

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"rlibm/internal/fp"
)

// Func identifies one of the six elementary functions.
type Func int

const (
	Exp Func = iota
	Exp2
	Exp10
	Log
	Log2
	Log10
	// Sinpi and Cospi are the trigonometric extension the paper's
	// conclusion announces as future work; RLibm ships them because their
	// argument reduction is exact for binary floating-point inputs.
	Sinpi
	Cospi
)

// numFuncs bounds the Func enumeration (array-table sizing).
const numFuncs = int(Cospi) + 1

// Funcs lists the six functions of the paper's evaluation, in its order.
var Funcs = []Func{Exp, Exp2, Exp10, Log, Log2, Log10}

// TrigFuncs lists the trigonometric extension functions.
var TrigFuncs = []Func{Sinpi, Cospi}

// AllFuncs lists every supported function.
var AllFuncs = append(append([]Func{}, Funcs...), TrigFuncs...)

func (f Func) String() string {
	switch f {
	case Exp:
		return "exp"
	case Exp2:
		return "exp2"
	case Exp10:
		return "exp10"
	case Log:
		return "log"
	case Log2:
		return "log2"
	case Log10:
		return "log10"
	case Sinpi:
		return "sinpi"
	case Cospi:
		return "cospi"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// ParseFunc converts a CLI name into a Func.
func ParseFunc(s string) (Func, error) {
	for _, f := range AllFuncs {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("oracle: unknown function %q", s)
}

// IsLog reports whether the function is one of the logarithms.
func (f Func) IsLog() bool { return f == Log || f == Log2 || f == Log10 }

// IsTrig reports whether the function is one of the trigonometric
// extensions.
func (f Func) IsTrig() bool { return f == Sinpi || f == Cospi }

// IsExpFamily reports whether the function is e^x, 2^x or 10^x.
func (f Func) IsExpFamily() bool { return f == Exp || f == Exp2 || f == Exp10 }

// symbolicSide reports whether an exponential-family result lies above
// 2^1025 (+1) or below 2^-1076 (-1). Every supported format embeds in
// float64, so its largest finite value is below 2^1024 and its smallest
// subnormal at least 2^-1073: such a result rounds like any value beyond
// the format's range (roundSymbolic), and no series is evaluated. The
// margin of one binade absorbs the rounding of x*log2(base).
func symbolicSide(f Func, x float64) int {
	var l2 float64 // log2 f(x)
	switch f {
	case Exp:
		l2 = x * math.Log2E
	case Exp2:
		l2 = x
	case Exp10:
		l2 = x * (math.Log2E / math.Log10E)
	default:
		return 0
	}
	switch {
	case l2 > 1025:
		return 1
	case l2 < -1076:
		return -1
	}
	return 0
}

// MathRef returns the float64 math-package reference for the function, used
// only in sanity tests.
func (f Func) MathRef(x float64) float64 {
	switch f {
	case Exp:
		return math.Exp(x)
	case Exp2:
		return math.Exp2(x)
	case Exp10:
		return math.Pow(10, x)
	case Log:
		return math.Log(x)
	case Log2:
		return math.Log2(x)
	case Log10:
		return math.Log10(x)
	case Sinpi:
		return math.Sin(math.Pi * x)
	case Cospi:
		return math.Cos(math.Pi * x)
	}
	panic("oracle: bad func")
}

// EvalBig returns an approximation of f(x) with relative error below
// 2^-prec. The input must be finite; logarithms require x > 0; the
// exponential family requires |x| <= 1e8.
func (f Func) EvalBig(x float64, prec uint) *big.Float {
	bx := new(big.Float).SetPrec(prec + 128).SetFloat64(x)
	switch f {
	case Exp:
		return expBig(bx, prec)
	case Exp2:
		return exp2Big(bx, prec)
	case Exp10:
		return exp10Big(bx, prec)
	case Log:
		return logBig(bx, prec)
	case Log2:
		return log2Big(bx, prec)
	case Log10:
		return log10Big(bx, prec)
	case Sinpi:
		return sinpiBig(bx, prec)
	case Cospi:
		return cospiBig(bx, prec)
	}
	panic("oracle: bad func")
}

// ExactValue reports whether f(x) is exactly a rational number and returns
// it. The generator uses this to enumerate the inputs with singleton
// rounding intervals (integral exp2 arguments, powers of two for log2, ...),
// which must never be dropped by constraint sampling.
func ExactValue(f Func, x float64) (*big.Rat, bool) {
	return exactResult(f, x)
}

// exactResult reports whether f(x) is exactly a rational number and returns
// it. For these six functions, classical transcendence results (Lindemann,
// Gelfond–Schneider) guarantee f(x) is irrational — indeed transcendental —
// for every other finite nonzero machine input, so the Ziv loop terminates.
func exactResult(f Func, x float64) (*big.Rat, bool) {
	isInt := x == math.Trunc(x)
	switch f {
	case Exp:
		if x == 0 {
			return big.NewRat(1, 1), true
		}
	case Exp2:
		if isInt && math.Abs(x) <= 4096 {
			return ratPow(2, int(x)), true
		}
	case Exp10:
		if isInt && math.Abs(x) <= 640 {
			return ratPow(10, int(x)), true
		}
	case Log:
		if x == 1 {
			return new(big.Rat), true
		}
	case Log2:
		if x > 0 {
			m, e := math.Frexp(x)
			if m == 0.5 {
				return new(big.Rat).SetInt64(int64(e - 1)), true
			}
		}
	case Log10:
		// 10^n = 2^n 5^n is a float64 only for 0 <= n <= 22 (5^22 < 2^53),
		// where math.Pow10 is exact.
		if x >= 1 && x <= 1e22 && x == math.Trunc(x) {
			n := int(math.Round(math.Log10(x)))
			if n <= 22 && x == math.Pow10(n) {
				return new(big.Rat).SetInt64(int64(n)), true
			}
		}
	case Sinpi, Cospi:
		return trigExact(f, x)
	}
	return nil, false
}

func ratPow(base int64, n int) *big.Rat {
	abs := n
	if abs < 0 {
		abs = -abs
	}
	p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(abs)), nil)
	if n >= 0 {
		return new(big.Rat).SetInt(p)
	}
	return new(big.Rat).SetFrac(big.NewInt(1), p)
}

// Value is a reusable oracle result for one (function, input) pair: the
// evaluation happens once, and Round answers any number of (format, mode)
// questions against it. Round first tries the double-double rung's
// enclosure and falls back, lazily and only for the (format, mode) pairs
// the enclosure cannot settle, to the big.Float Ziv loop, refining its
// precision in the rare ambiguous cases. Not safe for concurrent use.
type Value struct {
	fn       Func
	x        float64
	exact    *big.Rat // non-nil when f(x) is exactly rational
	symbolic int      // +1 far overflow, -1 far underflow, 0 normal
	// rung reports that the double-double rung evaluated f(x) into enc.
	rung bool
	enc  enclosure
	prec uint       // big.Float working precision; 0 before the Ziv path runs
	y    *big.Float // big.Float evaluation; nil before the Ziv path runs
}

// basePrec is the Ziv loop's base working precision: enough for all but the
// near-halfway cases, cheap enough to be the default starting rung.
const basePrec = 80

// ladderMaxStart caps how high the precision ladder may start a fresh
// evaluation: beyond it, overshooting an easy input costs more than the
// retries it saves on a hard one.
const ladderMaxStart = 2048

// ladders holds, per function, the terminal precision of the most recent
// Ziv-path Round — the precision-ladder fast path. Worst-case inputs
// cluster (near-halfway results live in narrow input neighbourhoods, and
// enumeration visits neighbours consecutively), so starting the next input
// at the precision that just succeeded skips the doubling retries — and the
// full re-evaluations they imply — for the whole neighbourhood. Easy inputs
// walk the ladder back down one rung per call. The rounded result is
// identical for every starting precision (roundUnambiguous only accepts an
// unambiguous interval), so the ladder is a pure speed knob; the atomic is
// shared by concurrent workers as an advisory hint.
var ladders [numFuncs]atomic.Uint64

// ladderStart returns the starting precision for a fresh evaluation of f.
func ladderStart(f Func) uint {
	p := uint(ladders[f].Load())
	if p < basePrec {
		return basePrec
	}
	if p > ladderMaxStart {
		return ladderMaxStart
	}
	return p
}

// ladderRecord folds one Ziv-path outcome back into the ladder: an
// escalation raises the rung to the terminal precision; an immediate
// success decays it halfway toward the base, so a run of easy inputs
// returns to cheap evaluations without forgetting a hard neighbourhood in
// one step.
func ladderRecord(f Func, terminal uint, depth int) {
	if depth > 0 {
		ladders[f].Store(uint64(terminal))
		return
	}
	next := terminal / 2
	if next < basePrec {
		next = basePrec
	}
	ladders[f].Store(uint64(next))
}

// Compute evaluates f(x) once for later rounding. The domain restrictions
// of Correct apply. After the exact and symbolic checks it tries the
// double-double rung and evaluates with big.Float only when the rung
// declines the input (outside its domain, or sinpi/cospi).
func Compute(f Func, x float64) *Value {
	return compute(f, x, true)
}

// compute is Compute with the rung optional: tests force the big.Float
// path with tryRung = false to compare the two and to pin the Ziv loop's
// terminal precisions.
func compute(f Func, x float64, tryRung bool) *Value {
	v := new(Value)
	v.init(f, x, tryRung)
	return v
}

// Reset evaluates f(x) into v like Compute, reusing v's storage: a loop
// that evaluates one input after another keeps a single Value off the heap.
func (v *Value) Reset(f Func, x float64) {
	v.init(f, x, true)
}

func (v *Value) init(f Func, x float64, tryRung bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("oracle: non-finite input")
	}
	if f.IsLog() && x <= 0 {
		panic("oracle: logarithm of a non-positive value")
	}
	*v = Value{fn: f, x: x, symbolic: symbolicSide(f, x)}
	if v.symbolic != 0 {
		return
	}
	if r, ok := exactResult(f, x); ok {
		v.exact = r
		return
	}
	if tryRung {
		if v.enc, v.rung = rung(f, x); v.rung {
			return
		}
	}
	v.evalBig()
}

// evalBig starts the Ziv path: the first big.Float evaluation, at the
// precision ladder's current rung.
func (v *Value) evalBig() {
	v.prec = ladderStart(v.fn)
	metricsFor(v.fn).observeLadderStart(v.prec)
	v.y = v.fn.EvalBig(v.x, v.prec)
}

// Round returns the correctly rounded value of f(x) in format t under mode
// m. It accepts the double-double rung's answer when both ends of the
// rung's enclosure round to the same value; otherwise it runs the Ziv
// loop, evaluating with big.Float on first need and raising the working
// precision until rounding is unambiguous.
//
// Each call counts a rung hit or decline, and each Ziv-path call records
// its escalation depth (precision doublings performed by this call; a
// reused Value keeps its precision, so later calls usually record depth 0)
// and terminal working precision into the obs.Default() registry —
// write-only instrumentation that cannot affect the result.
func (v *Value) Round(t fp.Format, m fp.Mode) float64 {
	if v.symbolic != 0 {
		metricsFor(v.fn).observeExact()
		return roundSymbolic(t, m, v.symbolic > 0)
	}
	if v.exact != nil {
		metricsFor(v.fn).observeExact()
		return t.RoundRat(v.exact, m)
	}
	if v.rung {
		if r, ok := v.enc.round(t, m); ok {
			metricsFor(v.fn).observeRung(true)
			return r
		}
	}
	metricsFor(v.fn).observeRung(false)
	if v.y == nil {
		v.evalBig()
	}
	depth := 0
	for {
		if r, ok := roundUnambiguous(v.y, v.prec-8, t, m); ok {
			metricsFor(v.fn).observeZiv(depth, v.prec)
			ladderRecord(v.fn, v.prec, depth)
			return r
		}
		if v.prec > 16384 {
			panic(fmt.Sprintf("oracle: Ziv loop did not converge for %v(%g)", v.fn, v.x))
		}
		v.prec *= 2
		v.y = v.fn.EvalBig(v.x, v.prec)
		depth++
	}
}

// TerminalPrec returns the big.Float working precision the last Round (or
// the initial Compute) left the value at. It is 0 when no big.Float
// evaluation has run: for exact and symbolic results, and for values whose
// every Round so far the double-double rung answered. The golden hard-case
// vectors pin it on the big.Float path so ladder or evaluation changes
// cannot silently deepen the escalations.
func (v *Value) TerminalPrec() uint { return v.prec }

// Correct returns the correctly rounded value of f(x) in format t under
// rounding mode m. x must be finite and inside the function's domain
// (x > 0 for logarithms); domain edges (infinities, NaN, non-positive log
// arguments, exact zeros) are the caller's special cases, as in RLibm.
func Correct(f Func, x float64, t fp.Format, m fp.Mode) float64 {
	var v Value // one query: keep the Value off the heap
	v.init(f, x, true)
	return v.Round(t, m)
}

// CorrectRO34 returns the RLibm-ALL oracle value: f(x) rounded to the
// 34-bit format with round-to-odd.
func CorrectRO34(f Func, x float64) float64 {
	return Correct(f, x, fp.FP34, fp.RTO)
}

// roundSymbolic rounds a positive exponential result that is beyond the
// overflow threshold (huge=true) or below half the smallest subnormal
// (huge=false) of t, honoring the mode-dependent overflow/underflow
// behaviour.
func roundSymbolic(t fp.Format, m fp.Mode, huge bool) float64 {
	if huge {
		if m == fp.RNE || m == fp.RNA || m == fp.RTP {
			return math.Inf(1)
		}
		return t.MaxFinite() // RTZ, RTN, and RTO: the largest value is odd
	}
	if m == fp.RTP || m == fp.RTO {
		return t.MinSubnormal() // the smallest subnormal is odd
	}
	return 0
}

// ResetLadders drops every function's precision ladder back to the base
// rung. Tests and benchmarks that assert terminal Ziv precisions call this
// first: the ladder is process-global advisory state, so without a reset
// the starting precision would depend on whatever ran before.
func ResetLadders() {
	for i := range ladders {
		ladders[i].Store(0)
	}
}

// scratchPool recycles the three big.Float temporaries of roundUnambiguous.
// Round is the hottest call in the repository (once per enumerated input
// per (format, mode)); without the pool each call allocates three mantissa
// buffers that die microseconds later. SetPrec reuses the pooled mantissa
// storage when the precision fits.
var scratchPool = sync.Pool{New: func() any { return new(roundScratch) }}

type roundScratch struct{ e, lo, hi big.Float }

// roundUnambiguous rounds y under the assumption |relative error| <
// 2^-errBits; ok is false when the error interval straddles a rounding
// boundary and more precision is needed.
func roundUnambiguous(y *big.Float, errBits uint, t fp.Format, m fp.Mode) (float64, bool) {
	wp := y.Prec() + 8
	sc := scratchPool.Get().(*roundScratch)
	e := sc.e.SetPrec(wp).Abs(y)
	e.SetMantExp(e, -int(errBits))
	lo := sc.lo.SetPrec(wp).Sub(y, e)
	hi := sc.hi.SetPrec(wp).Add(y, e)
	vlo := t.RoundBigFloat(lo, m)
	vhi := t.RoundBigFloat(hi, m)
	scratchPool.Put(sc)
	if sameFloat(vlo, vhi) {
		return vlo, true
	}
	return 0, false
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
