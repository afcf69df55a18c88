// Package core implements the paper's contribution: the RLibm polynomial
// generation pipeline with fast polynomial evaluation integrated into the
// generate–check–constrain loop (Algorithm 2 and Figure 1 of the CGO 2023
// paper).
//
// Given an elementary function, an input format and an evaluation scheme,
// the pipeline:
//
//  1. computes the round-to-odd oracle result in the (n+2)-bit target format
//     for every enumerated input and its rounding interval in double,
//  2. range-reduces each input and infers the reduced interval through the
//     inverse of the actual double-precision output compensation,
//  3. merges constraints that share a reduced input,
//  4. solves for polynomial coefficients with an exact rational LP over a
//     sampled subset (the randomized RLibm driver),
//  5. rounds the coefficients to double, adapts them for the chosen scheme
//     (Knuth / Estrin / Estrin+FMA), and validates every constraint using
//     the exact instruction sequence the generated library will execute,
//  6. shrinks the rounding intervals of violated inputs and repeats; inputs
//     whose interval empties become special cases.
package core

import (
	"math"
	"runtime"

	"rlibm/internal/fp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// Config controls one generation run.
type Config struct {
	// Fn is the elementary function to approximate.
	Fn oracle.Func
	// Scheme is the polynomial evaluation scheme to integrate into the
	// loop (Horner reproduces plain RLibm).
	Scheme poly.Scheme
	// Input is the largest format whose inputs must be handled; the paper
	// uses binary32. Tests use smaller formats for exhaustive runs.
	Input fp.Format
	// Target overrides the oracle rounding format; when zero it defaults
	// to (Input.Bits+2) with Input's exponent width — the RLibm-ALL choice.
	Target fp.Format
	// Degree is the first polynomial degree tried; DegreeMax bounds the
	// escalation when no polynomial is found.
	Degree, DegreeMax int
	// Pieces is the number of sub-domains for piecewise polynomials
	// (1 = single polynomial).
	Pieces int
	// MaxIters bounds the generate–check–constrain iterations per degree
	// (the paper's N).
	MaxIters int
	// SampleSize is the LP constraint sample size; 0 picks a default based
	// on the degree.
	SampleSize int
	// Stride enumerates every Stride-th input bit pattern (1 = exhaustive).
	// Inputs with exact (singleton-interval) results are always included.
	Stride uint64
	// MaxSpecials aborts generation when more special-case inputs than
	// this accumulate (a sign the degree is too low). 0 means 64.
	MaxSpecials int
	// Seed makes the randomized constraint sampling deterministic.
	Seed int64
	// Workers is the number of goroutines sharding the oracle/interval
	// collection pass and the per-iteration full-constraint check, and — when
	// > 1 — also runs GenerateAll's schemes concurrently. 0 picks
	// runtime.GOMAXPROCS(0). Results are bit-identical for every worker
	// count: the parallel phases reduce their outputs in a sorted,
	// shard-independent order.
	Workers int
	// Logger, when non-nil, receives leveled progress lines: per-run
	// summaries at Info, inner-loop detail at Debug. Nil silences the
	// pipeline.
	Logger *obs.Logger
	// Metrics, when non-nil, is the registry the pipeline records its
	// counters, gauges and histograms into; nil selects a fresh per-run
	// registry, so repeated runs never accumulate into each other (which
	// also keeps the Stats view per-run). Pass a shared registry (e.g.
	// obs.Default()) to consolidate several runs into one report.
	Metrics *obs.Registry
	// Trace, when non-nil, receives span-style structured events (JSONL):
	// collection and solve phases, per-iteration spans, constrain/demote
	// events. Tracing is write-only instrumentation — enabling it cannot
	// change the generated coefficients.
	Trace *obs.Tracer
}

func (c *Config) setDefaults() error {
	if err := c.Input.Validate(); err != nil {
		return err
	}
	if c.Target == (fp.Format{}) {
		c.Target = fp.Format{Bits: c.Input.Bits + 2, ExpBits: c.Input.ExpBits}
	}
	if err := c.Target.Validate(); err != nil {
		return err
	}
	if c.Degree == 0 {
		c.Degree = defaultDegree[c.Fn]
	}
	if c.DegreeMax == 0 {
		c.DegreeMax = 6
	}
	if c.DegreeMax < c.Degree {
		c.DegreeMax = c.Degree
	}
	if c.Pieces == 0 {
		c.Pieces = defaultPieces[c.Fn]
	}
	if c.MaxIters == 0 {
		c.MaxIters = 64
	}
	if c.SampleSize == 0 {
		// Small samples keep the exact-rational simplex fast; violated
		// constraints join the sample as iterations proceed (the PLDI'22
		// randomized driver).
		c.SampleSize = 5 * (c.Degree + 1)
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	if c.MaxSpecials == 0 {
		c.MaxSpecials = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// defaultDegree mirrors the degrees the paper's Table 1 reports per
// function.
var defaultDegree = map[oracle.Func]int{
	oracle.Exp:   4,
	oracle.Exp2:  5,
	oracle.Exp10: 5,
	oracle.Log:   4,
	oracle.Log2:  5,
	oracle.Log10: 4,
	oracle.Sinpi: 5,
	oracle.Cospi: 5,
}

// defaultPieces mirrors the piece counts of Table 1.
var defaultPieces = map[oracle.Func]int{
	oracle.Exp:   2,
	oracle.Exp2:  1,
	oracle.Exp10: 1,
	oracle.Log:   2,
	oracle.Log2:  1,
	oracle.Log10: 4,
	// The trigonometric extension approximates sin(pi*m) over the whole
	// quadrant [0, 1/2], which needs piecewise polynomials (as RLibm's
	// sinpi/cospi do).
	oracle.Sinpi: 16,
	oracle.Cospi: 16,
}

// logf emits inner-loop detail at debug level (shown with the CLIs' -v).
func (c *Config) logf(format string, args ...any) {
	c.Logger.Debugf(format, args...)
}

// Domain describes the input region handled by the polynomial path of an
// exponential-family function for a particular target format; inputs at or
// beyond the cuts produce constant round-to-odd results. For logarithms the
// cuts are infinite (every positive finite input takes the polynomial path).
type Domain struct {
	// Lo, Hi bound the open polynomial-path interval (Lo, Hi).
	Lo, Hi float64
	// LoVal, HiVal are the constant round-to-odd results returned at or
	// beyond the respective cut.
	LoVal, HiVal float64
	// TinyLo, TinyHi bound the plateau around zero where f(x) is so close
	// to 1 that the round-to-odd result is pinned to the odd neighbour of 1
	// (a polynomial evaluated in double cannot distinguish such inputs from
	// zero, so they take a constant path — as in RLibm's implementations).
	// Inputs with TinyLo <= x < 0 return TinyLoVal; 0 < x <= TinyHi return
	// TinyHiVal. Both are zero for the logarithm family (no plateau).
	TinyLo, TinyHi       float64
	TinyLoVal, TinyHiVal float64
}

// PolyPath reports whether x is handled by the polynomial pipeline (x = 0
// never is: f(0) is an exact special for every supported function).
func (d Domain) PolyPath(x float64) bool {
	if x == 0 || x <= d.Lo || x >= d.Hi {
		return false
	}
	if d.TinyLo <= x && x <= d.TinyHi {
		return false
	}
	return true
}

// FindDomain computes the polynomial-path domain of fn for the target
// format by bisecting the oracle over the monotone overflow/underflow
// predicates. Logarithms return an unbounded domain.
func FindDomain(fn oracle.Func, target fp.Format) Domain {
	if fn.IsLog() {
		return Domain{Lo: 0, Hi: math.Inf(1)}
	}
	if fn.IsTrig() {
		// The trigonometric reduction is exact for every finite double and
		// far inputs land on the structural points m = 0 or 1/2, so there
		// are no overflow cuts. cos(pi*x) needs a plateau around zero,
		// though: its reduction computes x + 1/2, which absorbs |x| below
		// the ulp of 1/2 — precisely the inputs whose round-to-odd result
		// is pinned to NextDown(1) anyway (the flat top of the cosine).
		d := Domain{Lo: math.Inf(-1), Hi: math.Inf(1)}
		if fn == oracle.Cospi {
			oneDown := target.NextDown(1)
			d.TinyHi = bisectHighest(func(x float64) bool {
				return oracle.Correct(fn, x, target, fp.RTO) >= oneDown
			}, math.Ldexp(1, -140), 0.49)
			d.TinyLo = -d.TinyHi
			d.TinyLoVal, d.TinyHiVal = oneDown, oneDown
		}
		return d
	}
	maxfin := target.MaxFinite()
	minsub := target.MinSubnormal()
	// Overflow plateau: the smallest x with RO(f(x)) == maxfin; every
	// larger x also saturates because f is increasing.
	hi := bisectLowest(func(x float64) bool {
		return oracle.Correct(fn, x, target, fp.RTO) >= maxfin
	}, 0.5, 1e6)
	// Underflow plateau: the largest x with RO(f(x)) <= minsub.
	lo := bisectHighest(func(x float64) bool {
		return oracle.Correct(fn, x, target, fp.RTO) <= minsub
	}, -1e6, -0.5)
	// Near-one plateaus around x = 0: while f(x) stays strictly between
	// 1 and its even 2-ulp neighbours, round-to-odd pins the result to
	// NextUp(1) (above) or NextDown(1) (below).
	oneUp := target.NextUp(1)
	oneDown := target.NextDown(1)
	tinyHi := bisectHighest(func(x float64) bool {
		return oracle.Correct(fn, x, target, fp.RTO) <= oneUp
	}, math.Ldexp(1, -140), 0.5)
	tinyLo := bisectLowest(func(x float64) bool {
		return oracle.Correct(fn, x, target, fp.RTO) >= oneDown
	}, -0.5, -math.Ldexp(1, -140))
	return Domain{
		Lo: lo, Hi: hi, LoVal: minsub, HiVal: maxfin,
		TinyLo: tinyLo, TinyHi: tinyHi, TinyLoVal: oneDown, TinyHiVal: oneUp,
	}
}

// bisectLowest finds the smallest double in [lo, hi] where the monotone
// predicate becomes true (it must be false at lo and true at hi).
func bisectLowest(pred func(float64) bool, lo, hi float64) float64 {
	for i := 0; i < 80 && math.Nextafter(lo, hi) != hi; i++ {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// bisectHighest finds the largest double in [lo, hi] where the monotone
// predicate is still true (true at lo, false at hi).
func bisectHighest(pred func(float64) bool, lo, hi float64) float64 {
	for i := 0; i < 80 && math.Nextafter(lo, hi) != hi; i++ {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
