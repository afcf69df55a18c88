package oracle

import (
	"math"

	"rlibm/internal/fp"
)

// The float64 first rung answers almost every oracle query without
// big.Float. It evaluates f(x) once in plain float64 arithmetic with a
// written relative-error bound (rungErrBits), turns that into an open
// float64 interval (lo, hi) guaranteed to contain f(x), and Value.Round
// accepts the rung's answer only when the interval rounds to one value in
// the requested (format, mode). Every supported rounding is monotone, so
// the whole interval then rounds to that value, which is therefore the
// correctly rounded result: the rule roundUnambiguous applies to the
// big.Float rungs. An interval that straddles a rounding boundary falls
// through to the Ziv loop, so results are bit-identical by construction.
//
// No query asks for more than FP34's 26 significant bits, so a bound of a
// few float64 roundings leaves an enclosure that straddles an FP34
// round-to-odd boundary on about 2^-22 of queries. Two regions need more
// than a bound relative to f(x):
//
//   - exponentials near 0, where f(x) = 1 + q rounds next to 1 in every
//     format: for n = 0, that is |r| <= ln2/256 on the natural-log scale
//     (|x| <= 2^-8.53 for exp, 2^-8 for exp2 and 2^-9.73 for exp10), the
//     rung bounds the error of q relative to q, and rung adds the 1 with
//     directed roundings.
//   - ln x at x = 1 ± k·2^-23 and 1 - k·2^-24, where d - d²/2 lies on the
//     FP34 grid and only the d³/3 term, 2^-49.6 relative for the smallest
//     k, separates ln x from a boundary: the bound of ln is 2^-50.
//
// Error budget per function, in units of u = 2^-53, the relative error of
// one float64 rounding (every line rounded up). The budget of each step
// holds whether or not the compiler fuses a product and a sum into an FMA:
// fusing only removes a rounding. Each exactness argument below holds for
// the fused and the unfused form alike, because the exact result is a
// float64 either way.
//
//	exp, exp2, exp10  near 0 (n = 0), relative to q = f(x) - 1: r = c*x
//	                  (exact for exp, one rounding for exp2 and exp10)
//	                  1, the sum r + r²P 1, the r²P term 0.01, truncation
//	                  0.01: under 2.1u.
//	                  Otherwise, relative to f(x): the same 2.1u on q
//	                  times |q| < 2^-8.4, the table entry 1, the final FMA
//	                  1, the reduced argument 0.01: under 2.1u.
//	                  Written bound 2^-50 = 8u.
//	log               r = fma(m, c, -1) 1 relative to r, log1p(r) 1.1
//	                  relative to itself, table entry 1, three additions 1
//	                  each; cancellation of e*ln2 + ln(1/c) + log1p(r) costs
//	                  at most a factor 3.5 on the terms (e = -1, the slot
//	                  below 1.5): under 3.5u. In the two slots touching 1
//	                  with e = 0 only log1p(r) remains, r is exact: 1.1u.
//	                  Written bound 2^-50 = 8u.
//	log2, log10       log plus the constant 1/ln2 or 1/ln10 (1) and one
//	                  product (1): under 5.5u. Written bound 2^-49 = 16u.
//
// The enclosure's ends y ± bnd round to nearest, which moves each by at
// most u·|y ± bnd| < 1.01u·|y|: every budget stays below its written bound
// by more than that, so the rounded ends still enclose f(x).
//
// TestRungErrorBound measures the largest error against a double-word
// reference over a million inputs per function and asserts it stays below
// half the written bound; TestRungReference checks that reference against
// big.Float to 2^-95.

// rungErrBits is the written relative-error bound of the rung, per
// function: the rung's value y satisfies |y - f(x)| < 2^-rungErrBits[f]·|y|
// (for the exponentials at n = 0, with y and f(x) replaced by q and
// f(x) - 1). Sinpi and cospi have none: the rung declines them.
var rungErrBits = [numFuncs]int{
	Exp: 50, Exp2: 50, Exp10: 50,
	Log: 50, Log2: 49, Log10: 49,
}

// Rung domains of the exponential family: the result's binary exponent
// stays within [-902, 900], so the value and its error bound are normal
// float64 values and the final scaling by 2^k is exact, and |n| < 2^17,
// which the Cody–Waite splits need. Logarithms take every positive finite
// float64. Inputs outside a domain are declined.
const (
	rungExpMax   = 600
	rungExp2Max  = 900
	rungExp10Max = 260
)

// rungTabN is the number of table entries for both families: 2^(j/128)
// for the exponentials and 128 reciprocal slots for the logarithms.
const rungTabN = 128

// rungEval returns the rung's value of f(x) as a + y, with a = 1 for the
// exponentials at n = 0 and a = 0 otherwise, and a bound bnd with
// |f(x) - a - y| < bnd; ok = false when x is outside the rung's domain for
// f (sinpi and cospi always decline). x is finite, and positive for the
// logarithms.
func rungEval(f Func, x float64) (a, y, bnd float64, ok bool) {
	switch f {
	case Exp, Exp2, Exp10:
		if a, y, ok = expRung(f, x); !ok {
			return 0, 0, 0, false
		}
	case Log, Log2, Log10:
		y = logRung(x)
		switch f {
		case Log2:
			y *= rungInvLn2
		case Log10:
			y *= rungInvLn10
		}
	default:
		return 0, 0, 0, false
	}
	// |y|·2^-rungErrBits is exact when y is normal and the product does
	// not underflow, true everywhere but at n = 0 for a subnormal x, where
	// the computed y carries an absolute error of up to 2^-1075 and the
	// scaled bound may round down by as much: 2^-1073 covers both.
	bnd = math.Abs(y) * math.Float64frombits(uint64(1023-rungErrBits[f])<<52)
	if a != 0 {
		bnd += 0x1p-1073
	}
	return a, y, bnd, true
}

// expRung evaluates the exponential family as
//
//	f(x) = 2^k * 2^(j/128) * (1 + q),  n = 128k + j,  q = expm1(r),
//
// with |r| <= ln2/256 (1+2^-30) on the natural-log scale. At n = 0 it
// returns a = 1 and y = q, otherwise a = 0 and y = f(x).
//
// The reduced argument: for exp, x - n*c1 is exact (c1 = rungLn2Hi/128 has
// 36 significant bits, so n*c1 is exact for |n| < 2^17, and x - n*c1 is a
// multiple of ulp(x), since ulp(x) divides ulp(c1) inside the domain, below
// c1/2 (1+2^-30), which fits in 53 bits of ulp(x) whenever n != 0 as then
// |x| >= c1/2); subtracting n*c2 costs two roundings below 2^-61 absolute.
// For exp2, x - n/128 is exact the same way. exp10 reduces on the log10(2)
// scale like exp and multiplies by ln10. At n = 0, r = x for exp, and c*x
// to one rounding for exp2 and exp10 (mulSplit).
func expRung(f Func, x float64) (a, y float64, ok bool) {
	var n, r float64
	switch f {
	case Exp:
		if !(math.Abs(x) <= rungExpMax) {
			return 0, 0, false
		}
		n = math.RoundToEven(x * (rungTabN / math.Ln2))
		r = float64(x-n*(rungLn2Hi/rungTabN)) - n*(rungLn2Lo/rungTabN)
	case Exp2:
		if !(math.Abs(x) <= rungExp2Max) {
			return 0, 0, false
		}
		n = math.RoundToEven(x * rungTabN)
		r = mulSplit(x-n/rungTabN, rungLn2Hi, rungLn2Lo)
	case Exp10:
		if !(math.Abs(x) <= rungExp10Max) {
			return 0, 0, false
		}
		n = math.RoundToEven(x * (rungTabN * math.Ln10 / math.Ln2))
		r = float64(x-n*(rungLog102Hi/rungTabN)) - n*(rungLog102Lo/rungTabN)
		r = mulSplit(r, rungLn10Hi, rungLn10Lo)
	}
	// expm1(r) to degree 6, truncation r^7/5040 < 2^-63 |q|, in Estrin's
	// scheme for a short dependency chain.
	r2 := r * r
	q := r + r2*((0.5+r*(1.0/6))+r2*((1.0/24+r*(1.0/120))+r2*(1.0/720)))
	if n == 0 {
		return 1, q, true
	}
	ni := int(n)
	t := rungExp2j[ni&(rungTabN-1)]
	// 2^k, k = floor(n/128) in [-902, 900]: the product is exact.
	scale := math.Float64frombits(uint64(ni>>7+1023) << 52)
	return 0, math.FMA(t, q, t) * scale, true
}

// mulSplit returns d*(hi+lo) rounded once, for a constant split into a
// 36-bit head and its rounded remainder: the FMA rounds d*hi + fl(d*lo),
// whose own error is below 2^-35 u |d*hi|.
func mulSplit(d, hi, lo float64) float64 {
	return math.FMA(d, hi, d*lo)
}

// logRung evaluates ln x for positive finite x as
//
//	ln x = e*ln2 + ln(1/c) + log1p(m*c - 1),  x = 2^e * m,  m in [0.75, 1.5),
//
// where slot i, the top 7 fraction bits of x, selects c = rungLogC[i] ~
// 2^(-k/128) near 1/mid for the slot's midpoint, and rungLogL[i] =
// RN(ln(1/c)). Slots 0-63 take m in [1, 1.5); slots 64-127 halve m into
// [0.75, 1) and raise e. The slots touching 1 (0 and 127) use c = 1, so
// near x = 1 the result is log1p(m-1) alone: r = m - 1 is exact there
// (Sterbenz) and the additions of zeros are exact. Elsewhere
// r = fma(m, c, -1) rounds once, |r| < 2^-7, and |ln x| >= 2^-7.01.
// e*rungLn2Hi is exact for |e| < 2^17.
func logRung(x float64) float64 {
	bits := math.Float64bits(x)
	e := int(bits>>52) - 1023
	if e == -1023 { // subnormal: normalize exactly
		bits = math.Float64bits(x * 0x1p54)
		e = int(bits>>52) - 1023 - 54
	}
	i := int(bits>>45) & (rungTabN - 1)
	m := math.Float64frombits(bits&(1<<52-1) | 1023<<52)
	if i >= rungTabN/2 {
		m /= 2
		e++
	}
	r := math.FMA(m, rungLogC[i], -1)
	// log1p(r) to degree 8, truncation r^9/9 < 2^-59 |log1p(r)|, in
	// Estrin's scheme.
	r2 := r * r
	p := r + r2*((-0.5+r*(1.0/3))+r2*((-0.25+r*0.2)+r2*((-1.0/6+r*(1.0/7))+r2*(-0.125))))
	fe := float64(e)
	return float64(fe*rungLn2Hi+rungLogL[i]) + (p + fe*rungLn2Lo)
}

// enclosure is an open float64 interval (lo, hi) that contains f(x).
type enclosure struct{ lo, hi float64 }

// rung evaluates f(x) on the float64 rung and encloses it; ok = false when
// the rung declines x.
func rung(f Func, x float64) (e enclosure, ok bool) {
	a, y, bnd, ok := rungEval(f, x)
	if !ok {
		return enclosure{}, false
	}
	lo, hi := y-bnd, y+bnd
	if a != 0 {
		lo, hi = roundDown(a, lo), -roundDown(-a, -hi)
	}
	return enclosure{lo, hi}, true
}

// roundDown returns a+b rounded toward -Inf, for |a| >= |b| or an exact
// sum: fastTwoSum's error is then exact, and when it is negative the
// nearest float64 s lies above a+b and the result is the float64 below s.
// s is nonzero then, because float64 sums never underflow. Without
// branches: the sign bits of the error and of s pick the step.
func roundDown(a, b float64) float64 {
	s := a + b
	sb := math.Float64bits(s)
	step := math.Float64bits(b-(s-a)) >> 63
	return math.Float64frombits(sb - step + 2*step*(sb>>63))
}

// round returns the rounding of the enclosed value in format t under mode
// m, or ok = false when the enclosure straddles a rounding boundary.
//
// Rounding is monotone, so equal roundings of both ends settle every value
// in between. For formats with at most 51 bits of precision the ends first
// move inward to the nearest float64 with an odd significand: f(x) lies
// strictly inside (lo, hi), so its float64 round-to-odd lies between the
// moved ends, and rounding that to a format at least two bits narrower
// gives the correctly rounded result in every mode — the round-to-odd
// double-rounding theorem the RLibm-ALL pipeline rests on (internal/fp),
// applied at float64 precision. Rung values are normal float64s, where
// float64 keeps those two extra bits over every format. This is what
// settles 1 + q next to 1 when (lo, hi) holds no float64 value at all.
func (e enclosure) round(t fp.Format, m fp.Mode) (float64, bool) {
	lb, hb := math.Float64bits(e.lo), math.Float64bits(e.hi)
	if t.Prec() <= 51 {
		// An even end steps inward: up for lo, down for hi, which is a
		// bit-pattern step of opposite sign for negative values.
		ev := ^lb & 1
		lb = lb + ev - 2*ev*(lb>>63)
		ev = ^hb & 1
		hb = hb - ev + 2*ev*(hb>>63)
	}
	r := t.Round(math.Float64frombits(lb), m)
	if sameFloat(r, t.Round(math.Float64frombits(hb), m)) {
		return r, true
	}
	return 0, false
}
