package oracle

import (
	"math"
	"math/big"
	"sync"

	"rlibm/internal/fp"
)

// The double-double first rung answers almost every oracle query without
// big.Float. It evaluates f(x) as an unevaluated sum hi+lo of two float64
// values with a written relative-error bound (rungErrBits), turns that into
// a float64 interval [a, b] guaranteed to contain f(x), and Value.Round
// accepts the rung's answer only when a and b round to the same value in
// the requested (format, mode). Every supported rounding is monotone, so
// the whole interval then rounds to that value, which is therefore the
// correctly rounded result: the rule roundUnambiguous applies to the
// big.Float rungs. An interval that straddles a rounding boundary falls
// through to the Ziv loop, so results are bit-identical by construction.
// (enclosure.round also settles the case where f(x) lies strictly between
// two adjacent float64 values, through its float64 round-to-odd value.)
//
// Arithmetic is built from error-free transforms (twoSum, fastTwoSum and
// the FMA-based twoProd) and the double-word algorithms of Joldes, Muller
// and Popescu, "Tight and rigorous error bounds for basic building blocks
// of double-word arithmetic" (ACM TOMS 2017), whose relative-error bounds
// in units of u² (u = 2^-53, u² = 2^-106) are quoted at each operation.
// Table entries and constants are rounded once from the big.Float
// evaluators of bigmath.go, to within u² relative.
//
// Error budget per function (every line in u², rounded up):
//
//	exp, exp2, exp10  Taylor truncation 0.6, float64 tail 0.1, double-word
//	                  Horner 3.5, reduced argument 0.1, table 1, final
//	                  product 5: under 11 u², written bound 2^-100 = 64 u².
//	log               log1p(r) series 9, e*ln2 3, table 1, two additions
//	                  3 each; the sum of three terms loses at most a factor
//	                  4 to cancellation: under 50 u², written bound
//	                  2^-98 = 256 u².
//	log2, log10       log plus one product (5) and the constant (1): under
//	                  56 u², written bound 2^-97 = 512 u².
//
// The written bounds leave a margin of five or more over the budget;
// TestRungErrorBound measures the largest error against a 256-bit
// reference and asserts it stays below the bound.

// rungErrBits is the written relative-error bound of the rung, per
// function: |hi+lo - f(x)| < 2^-rungErrBits[f] * |f(x)|. Sinpi and cospi
// have none: the rung declines them.
var rungErrBits = [numFuncs]int{
	Exp: 100, Exp2: 100, Exp10: 100,
	Log: 98, Log2: 97, Log10: 97,
}

// Rung domains of the exponential family: the result's binary exponent
// stays within [-902, 900], so hi, lo and the error bound are normal
// float64 values and the final scaling by 2^k is exact. Logarithms take
// every positive finite float64. Inputs outside a domain are declined.
const (
	rungExpMax   = 600
	rungExp2Max  = 900
	rungExp10Max = 260
)

// twoSum returns s = fl(a+b) and the exact error e = a+b-s.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// fastTwoSum is twoSum for |a| >= |b| (or a = 0): s = fl(a+b), e exact.
func fastTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// twoProd returns p = fl(a*b) and the exact error e = a*b-p.
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// dd is a normalized double-word number hi+lo with hi = fl(hi+lo).
type dd struct{ hi, lo float64 }

// addDD is AccurateDWPlusDW (JMP Algorithm 6): relative error below 3u².
func addDD(x, y dd) dd {
	sh, sl := twoSum(x.hi, y.hi)
	th, tl := twoSum(x.lo, y.lo)
	sl += th
	sh, sl = fastTwoSum(sh, sl)
	sl += tl
	sh, sl = fastTwoSum(sh, sl)
	return dd{sh, sl}
}

// addDF is DWPlusFP (JMP Algorithm 4): relative error below 2u².
func addDF(x dd, y float64) dd {
	sh, sl := twoSum(x.hi, y)
	sh, sl = fastTwoSum(sh, x.lo+sl)
	return dd{sh, sl}
}

// mulDD is DWTimesDW3 (JMP Algorithm 12): relative error below 4u²; the
// budget above charges 5u².
func mulDD(x, y dd) dd {
	ch, cl1 := twoProd(x.hi, y.hi)
	tl0 := x.lo * y.lo
	tl1 := math.FMA(x.hi, y.lo, tl0)
	cl2 := math.FMA(x.lo, y.hi, tl1)
	ch, cl3 := fastTwoSum(ch, cl1+cl2)
	return dd{ch, cl3}
}

// mulDF is DWTimesFP3 (JMP Algorithm 9): relative error below 2u².
func mulDF(x dd, y float64) dd {
	ch, cl1 := twoProd(x.hi, y)
	cl3 := math.FMA(x.lo, y, cl1)
	ch, cl3 = fastTwoSum(ch, cl3)
	return dd{ch, cl3}
}

// ddOf rounds a big.Float to the nearest double-word: hi = RN(v),
// lo = RN(v-hi), relative error at most u².
func ddOf(v *big.Float) dd {
	hi, _ := v.Float64()
	rest := new(big.Float).SetPrec(v.Prec()).Sub(v, new(big.Float).SetFloat64(hi))
	lo, _ := rest.Float64()
	return dd{hi, lo}
}

// splitOf returns the Cody–Waite triple c1+c2+c3 of v: c1 has 36
// significant bits, so n*c1 is exact for |n| < 2^17; c2 and c3 are the
// next two roundings. |v - (c1+c2+c3)| < 2^-140 |v| for v exact to at
// least 142 bits.
func splitOf(v *big.Float) [3]float64 {
	var c [3]float64
	rest := new(big.Float).SetPrec(v.Prec()).Set(v)
	for i, p := range []uint{36, 53, 53} {
		c[i], _ = new(big.Float).SetPrec(p).Set(rest).Float64()
		rest.Sub(rest, new(big.Float).SetFloat64(c[i]))
	}
	return c
}

// rungTabN is the number of table entries for both families: 2^(j/128)
// for the exponentials and 128 reciprocal slots for the logarithms.
const rungTabN = 128

type rungTables struct {
	exp2j [rungTabN]dd // 2^(j/128)
	// logC[i] and logL[i] = -ln(logC[i]) serve the mantissa slot i; see
	// logRung for the slot layout.
	logC [rungTabN]float64
	logL [rungTabN]dd

	ln2, ln10, invLn2, invLn10 dd
	ln2N, log102N              [3]float64 // splits of ln2/128 and log10(2)/128
	// Double-word Horner coefficients, highest degree first: 1/k! for
	// k = 5..0, and (-1)^(k+1)/k for k = 8..1.
	expC   [6]dd
	log1pC [8]dd
}

var (
	rungOnce sync.Once
	rungTab  *rungTables
)

// rungTablePrec is the precision the tables are derived at: its error is
// far below u² = 2^-106 once rounded to double-words.
const rungTablePrec = 128

// tables builds the rung's constants once, from the big.Float constants
// and evaluators the Ziv loop uses.
func tables() *rungTables {
	rungOnce.Do(func() {
		const wp = rungTablePrec
		t := new(rungTables)
		// consts(wp) holds wp+64 bits, enough for the Cody–Waite splits.
		ln2, ln10, log210 := consts(wp)
		one := big.NewFloat(1).SetPrec(wp)
		t.ln2, t.ln10 = ddOf(ln2), ddOf(ln10)
		t.invLn2 = ddOf(new(big.Float).SetPrec(wp).Quo(one, ln2))
		t.invLn10 = ddOf(new(big.Float).SetPrec(wp).Quo(one, ln10))
		t.ln2N = splitOf(new(big.Float).SetMantExp(ln2, -7))
		log102 := new(big.Float).SetPrec(log210.Prec()).Quo(one, log210)
		t.log102N = splitOf(log102.SetMantExp(log102, -7))

		// 2^(j/128) by repeated multiplication with 2^(1/128); 127 roundings
		// at wp bits cost nothing at double-word precision.
		step := exp2Big(new(big.Float).SetPrec(wp).SetFloat64(1.0/rungTabN), wp)
		var pow [rungTabN]*big.Float
		pow[0] = new(big.Float).SetPrec(wp).Set(one)
		for j := range t.exp2j {
			if j > 0 {
				pow[j] = new(big.Float).SetPrec(wp).Mul(pow[j-1], step)
			}
			t.exp2j[j] = ddOf(pow[j])
		}

		// Each log slot's reciprocal is c ~ 2^(-k/128) for the k nearest
		// log2 of the slot's midpoint, so ln(1/c) = k ln2/128 - log1p(d)
		// with d = c 2^(k/128) - 1, |d| <= 2^-51, and log1p(d) = d - d²/2
		// to below 2^-150: no big.Float logarithm per slot. Then
		// |r| <= 2^-8 + 2^-8.5 < 2^-7.
		ln2N := new(big.Float).SetPrec(wp).SetMantExp(ln2, -7)
		for i := range t.logC {
			mid := 1 + (float64(i)+0.5)/rungTabN
			if i >= rungTabN/2 {
				mid /= 2
			}
			k := int(math.Round(math.Log2(mid) * rungTabN))
			if i == 0 || i == rungTabN-1 {
				k = 0 // slots touching 1: c = 1, ln c = 0, no cancellation
			}
			tk := new(big.Float).SetPrec(wp).Set(pow[k&(rungTabN-1)])
			tk.SetMantExp(tk, k>>7) // 2^(k/128)
			tf, _ := tk.Float64()
			t.logC[i] = 1 / tf
			d := new(big.Float).SetPrec(wp).SetFloat64(t.logC[i])
			d.Mul(d, tk).Sub(d, one)
			l := new(big.Float).SetPrec(wp).SetInt64(int64(k))
			l.Mul(l, ln2N).Sub(l, d)
			d.Mul(d, d)
			l.Add(l, d.SetMantExp(d, -1))
			t.logL[i] = ddOf(l)
		}

		for k := 0; k <= 5; k++ {
			f := new(big.Float).SetPrec(wp).SetInt64(1)
			for i := 2; i <= k; i++ {
				f.Quo(f, new(big.Float).SetPrec(wp).SetInt64(int64(i)))
			}
			t.expC[5-k] = ddOf(f)
		}
		for k := 1; k <= 8; k++ {
			f := new(big.Float).SetPrec(wp).Quo(one, new(big.Float).SetPrec(wp).SetInt64(int64(k)))
			if k%2 == 0 {
				f.Neg(f)
			}
			t.log1pC[8-k] = ddOf(f)
		}
		rungTab = t
	})
	return rungTab
}

// rungEval returns the double-word approximation y of f(x), with relative
// error below 2^-rungErrBits[f], and a bound bnd > |f(x) - (y.hi+y.lo)|;
// ok = false when x is outside the rung's domain for f (sinpi and cospi
// always decline). x is finite, and positive for the logarithms.
func rungEval(f Func, x float64) (y dd, bnd float64, ok bool) {
	switch f {
	case Exp, Exp2, Exp10:
		if y, bnd, ok := expNearZero(f, x); ok {
			return y, bnd, true
		}
		if y, ok = expRung(f, x); !ok {
			return dd{}, 0, false
		}
	case Log, Log2, Log10:
		y = logRung(x)
		switch f {
		case Log2:
			y = mulDD(y, tables().invLn2)
		case Log10:
			y = mulDD(y, tables().invLn10)
		}
	default:
		return dd{}, 0, false
	}
	// |f(x) - (hi+lo)| < 2^-errBits |f(x)| < 2^(1-errBits) |hi|, exactly
	// computed: hi is normal and the product does not underflow.
	return y, math.Abs(y.hi) * math.Float64frombits(uint64(1024-rungErrBits[f])<<52), true
}

// expNearZero handles |x| < 2^-60, where f(x) = 1 + c*x + O((c*x)^2) with
// c = 1, ln2 or ln10: hi = 1 and lo = fl(c*x). c*x is within 2^-52 |c*x|
// of lo, plus 2^-1075 when lo is subnormal, so the error is below
// 2^-50 |lo| + 2^-1073. This bound is relative to f(x) - 1 rather than to
// f(x), so the sign of f(x) - 1 stays known down to |x| near 2^-1070
// (rungErrBits holds too: |lo| < 2^-58).
func expNearZero(f Func, x float64) (dd, float64, bool) {
	if !(math.Abs(x) < 0x1p-60) {
		return dd{}, 0, false
	}
	lo := x
	switch f {
	case Exp2:
		lo = x * math.Ln2
	case Exp10:
		lo = x * math.Ln10
	}
	return dd{1, lo}, math.Abs(lo)*0x1p-50 + 0x1p-1073, true
}

// expRung evaluates the exponential family as
//
//	f(x) = 2^k * 2^(j/128) * exp(r),  n = 128k + j,  |r| <= ln2/256 (1+2^-30),
//
// with r on the natural-log scale carried as a double-word.
func expRung(f Func, x float64) (dd, bool) {
	t := tables()
	var n float64
	var r dd
	switch f {
	case Exp:
		if !(math.Abs(x) <= rungExpMax) {
			return dd{}, false
		}
		n = math.RoundToEven(x * (rungTabN / math.Ln2))
		r = codyWaite(x, n, &t.ln2N)
	case Exp2:
		if !(math.Abs(x) <= rungExp2Max) {
			return dd{}, false
		}
		n = math.RoundToEven(x * rungTabN)
		// x - n/128 is exact: both are multiples of ulp(x) (|x| < 2^46),
		// and the difference is below 2^-8 while ulp(x) >= 2^-61 whenever
		// n != 0. mulDF adds 2u² relative to |r| <= 2^-8.5.
		r = mulDF(t.ln2, x-n/rungTabN)
	case Exp10:
		if !(math.Abs(x) <= rungExp10Max) {
			return dd{}, false
		}
		n = math.RoundToEven(x * (rungTabN * math.Log2E / math.Log10E))
		r = mulDD(codyWaite(x, n, &t.log102N), t.ln10)
	}
	e := expPoly(r)
	ni := int(n)
	y := mulDD(t.exp2j[ni&(rungTabN-1)], e)
	// 2^k, k = floor(n/128) in [-902, 900]: the products are exact but for
	// a subnormal lo, whose single rounding is far below the bound.
	scale := math.Float64frombits(uint64(ni>>7+1023) << 52)
	return dd{y.hi * scale, y.lo * scale}, true
}

// codyWaite returns x - n*c as a double-word, for c = c[0]+c[1]+c[2]
// (splitOf), |n| < 2^17 and |x - n*c| <= c/2 (1+2^-30). n*c[0] is exact;
// x - n*c[0] is exact because both are multiples of ulp(x) (ulp(x)
// divides ulp(c[0]) inside the rung domains) and the difference, below
// c/2 (1+2^-30), fits in 53 bits of ulp(x) whenever n != 0 (|x| >= c/2
// then, and c/2 is not close to a power of two). twoProd and twoSum are exact; the only roundings are the three
// in lo, below 2^-112, and n*c[2]'s, below 2^-133: the absolute error is
// under 2^-111, a relative error of f(x) under 0.1u².
func codyWaite(x, n float64, c *[3]float64) dd {
	t := x - n*c[0]
	p, pe := twoProd(n, c[1])
	s, se := twoSum(t, -p)
	hi, lo := fastTwoSum(s, se-pe-n*c[2])
	return dd{hi, lo}
}

// expPoly is the degree-9 Taylor polynomial of exp at 0 for |r| <= 2^-8.5:
// truncation below 0.6u². Degrees 6-9 contribute below 2^-60 and run in
// float64 on r.hi; degrees 0-5 run as double-word Horner steps, whose
// error is dominated by the last addition (3u²).
func expPoly(r dd) dd {
	p := (((1.0/362880)*r.hi+1.0/40320)*r.hi+1.0/5040)*r.hi + 1.0/720
	return horner(p, r, tables().expC[:])
}

// horner evaluates (...((p*r + c[0])*r + c[1])*r ...) + c[n-1] for a
// float64 tail value p, with double-word products and sums; coefficients
// that are float64 values (lo = 0) take the cheaper addDF.
func horner(p float64, r dd, c []dd) dd {
	y := mulDF(r, p)
	for i := range c {
		if i > 0 {
			y = mulDD(y, r)
		}
		if c[i].lo == 0 {
			y = addDF(y, c[i].hi)
		} else {
			y = addDD(y, c[i])
		}
	}
	return y
}

// logRung evaluates ln x for positive finite x as
//
//	ln x = e*ln2 + ln(1/c) + log1p(m*c - 1),  x = 2^e * m,  m in [0.75, 1.5),
//
// where slot i, the top 7 fraction bits of x, selects c = logC[i] ~ 1/mid
// for the slot's midpoint. Slots 0-63 take m in [1, 1.5); slots 64-127
// halve m into [0.75, 1) and raise e. The slots touching 1 (0 and 127)
// use c = 1, so near x = 1 the result is log1p(x-1) alone with no
// cancellation. r = m*c - 1 is exact as a double-word (twoProd, then p-1
// by Sterbenz), |r| < 2^-7.
func logRung(x float64) dd {
	t := tables()
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
	p, pe := twoProd(m, t.logC[i])
	rh, rl := twoSum(p-1, pe)
	y := addDD(t.logL[i], log1p(dd{rh, rl}))
	if e != 0 {
		y = addDD(mulDF(t.ln2, float64(e)), y)
	}
	return y
}

// log1p is the degree-15 Taylor polynomial of log1p at 0 for |r| < 2^-7:
// truncation below 2^-112 relative. Degrees 9-15 contribute below 2^-56
// relative and run in float64; degrees 1-8 run as double-word Horner
// steps (about 3.5u²) and the final product adds 5u².
func log1p(r dd) dd {
	t := tables()
	h := r.hi
	p := (((((1.0/15*h-1.0/14)*h+1.0/13)*h-1.0/12)*h+1.0/11)*h-1.0/10)*h + 1.0/9
	return mulDD(horner(p, r, t.log1pC[:]), r)
}

// enclosure is a float64 interval [lo, hi] containing f(x). When open is
// set, lo and hi are adjacent float64 values and f(x) lies strictly
// between them.
type enclosure struct {
	lo, hi float64
	open   bool
}

// rung evaluates f(x) on the double-double rung and encloses it; ok =
// false when the rung declines x.
func rung(f Func, x float64) (e enclosure, ok bool) {
	y, bnd, ok := rungEval(f, x)
	if !ok {
		return enclosure{}, false
	}
	return enclose(y, bnd), true
}

// enclose returns the enclosure of a value within bnd of y.hi+y.lo.
//
// bnd is far below the spacing from y.hi to either float64 neighbour
// (y.hi = fl(y.hi+y.lo), so |y.lo| is at most half of it, and bnd is
// below 2^-90 |y.hi|), so the value lies strictly between those
// neighbours; the sign of y.lo settles the side when |y.lo| exceeds bnd.
func enclose(y dd, bnd float64) enclosure {
	// y.hi is normal and far from overflow: its neighbours are one bit
	// pattern away, on the side its sign says.
	bits := math.Float64bits(y.hi)
	e := enclosure{lo: math.Float64frombits(bits - 1), hi: math.Float64frombits(bits + 1)}
	if y.hi < 0 {
		e.lo, e.hi = e.hi, e.lo
	}
	if y.lo > bnd {
		e.lo, e.open = y.hi, true
	} else if y.lo < -bnd {
		e.hi, e.open = y.hi, true
	}
	return e
}

// round returns the rounding of the enclosed value in format t under mode
// m, or ok = false when the enclosure straddles a rounding boundary.
//
// Rounding is monotone, so equal roundings of both ends settle every value
// in between. An open enclosure settles the rest for formats with at most
// 51 bits of precision: the value's float64 round-to-odd is the end with
// the odd significand, and rounding that to a format at least two bits
// narrower gives the correctly rounded result in every mode — the
// round-to-odd double-rounding theorem the RLibm-ALL pipeline rests on
// (internal/fp), applied at float64 precision. Rung values are normal
// float64s, where float64 keeps those two extra bits over every format.
func (e enclosure) round(t fp.Format, m fp.Mode) (float64, bool) {
	r := t.Round(e.lo, m)
	if sameFloat(r, t.Round(e.hi, m)) {
		return r, true
	}
	if !e.open || t.Prec() > 51 {
		return 0, false
	}
	odd := e.lo
	if math.Float64bits(odd)&1 == 0 {
		odd = e.hi
	}
	return t.Round(odd, m), true
}
