package oracle

import (
	"math"
	"math/big"
	"sync"
	"testing"
)

// This file keeps the rung's reference: the tables rebuilt from the
// big.Float evaluators of bigmath.go, and a double-word evaluation of the
// six functions with a relative error near 2^-100, which TestRungErrorBound
// measures the float64 rung against.
//
// The double-word arithmetic is built from error-free transforms (twoSum,
// fastTwoSum and the FMA-based twoProd) and the algorithms of Joldes,
// Muller and Popescu, "Tight and rigorous error bounds for basic building
// blocks of double-word arithmetic" (ACM TOMS 2017); their relative-error
// bounds are quoted in units of u² = 2^-106.

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

// mulDD is DWTimesDW3 (JMP Algorithm 12): relative error below 4u².
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
// significant bits, c2 and c3 are the next two roundings to nearest.
func splitOf(v *big.Float) [3]float64 {
	var c [3]float64
	rest := new(big.Float).SetPrec(v.Prec()).Set(v)
	for i, p := range []uint{36, 53, 53} {
		c[i], _ = new(big.Float).SetPrec(p).Set(rest).Float64()
		rest.Sub(rest, new(big.Float).SetFloat64(c[i]))
	}
	return c
}

// refTables holds the reference's double-word constants. The float64
// tables of the rung are their leading parts (TestRungTables).
type refTables struct {
	exp2j [rungTabN]dd // 2^(j/128)
	logC  [rungTabN]float64
	logL  [rungTabN]dd // ln(1/logC[i])

	ln2, ln10, invLn2, invLn10 dd
	ln2S, ln10S, log102S       [3]float64 // splits of ln2, ln10, log10(2)
	// Double-word Horner coefficients, highest degree first: 1/(k+1)! for
	// k = 8..0 (expm1(r)/r), and (-1)^(k+1)/k for k = 8..1 (log1p).
	expm1C [9]dd
	log1pC [8]dd
}

var (
	refOnce sync.Once
	refTab  *refTables
)

// refTablePrec is the precision the tables are derived at: far below
// u² = 2^-106 once rounded to double-words.
const refTablePrec = 160

// buildRefTables derives every constant from the big.Float constants and
// evaluators the Ziv loop uses.
func buildRefTables() *refTables {
	refOnce.Do(func() {
		const wp = refTablePrec
		t := new(refTables)
		ln2, ln10, log210 := consts(wp)
		one := big.NewFloat(1).SetPrec(wp)
		t.ln2, t.ln10 = ddOf(ln2), ddOf(ln10)
		t.invLn2 = ddOf(new(big.Float).SetPrec(wp).Quo(one, ln2))
		t.invLn10 = ddOf(new(big.Float).SetPrec(wp).Quo(one, ln10))
		t.ln2S, t.ln10S = splitOf(ln2), splitOf(ln10)
		t.log102S = splitOf(new(big.Float).SetPrec(wp).Quo(one, log210))
		for j := range t.exp2j {
			t.exp2j[j] = ddOf(exp2Big(new(big.Float).SetFloat64(float64(j)/rungTabN), wp))
		}
		// Each log slot's reciprocal is c = 1/RN(2^(k/128)) for the k
		// nearest 128*log2 of the slot's midpoint; the slots touching 1
		// take k = 0, c = 1.
		for i := range t.logC {
			mid := 1 + (float64(i)+0.5)/rungTabN
			if i >= rungTabN/2 {
				mid /= 2
			}
			k := int(math.Round(math.Log2(mid) * rungTabN))
			if i == 0 || i == rungTabN-1 {
				k = 0
			}
			t.logC[i] = 1 / math.Ldexp(t.exp2j[k&(rungTabN-1)].hi, k>>7)
			l := logBig(new(big.Float).SetFloat64(t.logC[i]), wp)
			t.logL[i] = ddOf(l.Sub(new(big.Float), l)) // +0 for c = 1
		}
		f := new(big.Float).SetPrec(wp).Set(one)
		for k := 0; k <= 8; k++ {
			f.Quo(f, new(big.Float).SetPrec(wp).SetInt64(int64(k+1)))
			t.expm1C[8-k] = ddOf(f)
		}
		for k := 1; k <= 8; k++ {
			f := new(big.Float).SetPrec(wp).Quo(one, new(big.Float).SetPrec(wp).SetInt64(int64(k)))
			if k%2 == 0 {
				f.Neg(f)
			}
			t.log1pC[8-k] = ddOf(f)
		}
		refTab = t
	})
	return refTab
}

// TestRungTables rebuilds the rung's committed float64 tables and split
// constants from bigmath.go and asserts every entry bit for bit.
func TestRungTables(t *testing.T) {
	ref := buildRefTables()
	check := func(name string, got, want float64) {
		t.Helper()
		if !sameFloat(got, want) {
			t.Errorf("%s = %x, rebuilt %x", name, got, want)
		}
	}
	for j := range rungExp2j {
		check("rungExp2j", rungExp2j[j], ref.exp2j[j].hi)
		check("rungLogC", rungLogC[j], ref.logC[j])
		check("rungLogL", rungLogL[j], ref.logL[j].hi)
	}
	check("rungLn2Hi", rungLn2Hi, ref.ln2S[0])
	check("rungLn2Lo", rungLn2Lo, ref.ln2S[1])
	check("rungLn10Hi", rungLn10Hi, ref.ln10S[0])
	check("rungLn10Lo", rungLn10Lo, ref.ln10S[1])
	check("rungLog102Hi", rungLog102Hi, ref.log102S[0])
	check("rungLog102Lo", rungLog102Lo, ref.log102S[1])
	check("rungInvLn2", rungInvLn2, ref.invLn2.hi)
	check("rungInvLn10", rungInvLn10, ref.invLn10.hi)
}

// TestRungReference checks the reference itself, which
// TestRungErrorBound's measurement rests on: over 6,000 seeded inputs per
// function (900 under -short), the exponentials' n = 0 neighbourhood
// included, refEval is within 2^-95 relative of the big.Float evaluator
// at 320 bits, minus 1 where rungEval returns a = 1.
func TestRungReference(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 900
	}
	const prec = 320
	for _, f := range Funcs {
		nearZero, worst := 0, 0.0
		for _, x := range rungSample(f, n, int64(f)+100) {
			a, _, _, ok := rungEval(f, x)
			if !ok {
				t.Fatalf("%v(%g): rung declined an input of the polynomial-path domain", f, x)
			}
			want := f.EvalBig(x, prec)
			if a != 0 {
				want.Sub(want, big.NewFloat(a)) // exact: want is next to a
				nearZero++
			}
			got := refEval(f, x, a)
			diff := new(big.Float).SetPrec(prec).SetFloat64(got.hi)
			diff.Add(diff, new(big.Float).SetFloat64(got.lo)).Sub(diff, want)
			rel, _ := diff.Quo(diff, want).Float64()
			if rel = math.Abs(rel); !(rel < 0x1p-95) {
				t.Fatalf("%v(%g): reference off by %g relative", f, x, rel)
			}
			worst = max(worst, rel)
		}
		t.Logf("%v: largest relative error 2^%.2f", f, math.Log2(worst))
		if !f.IsLog() && nearZero == 0 {
			t.Errorf("%v: the sample holds no input with n = 0", f)
		}
	}
}

// refEval returns f(x) - a as a double-word with a relative error near
// 2^-100, for the a that rungEval returned: a = 1 asks for expm1 of the
// exponential's natural-log argument, which the subtraction from f(x)
// would lose.
func refEval(f Func, x, a float64) dd {
	t := buildRefTables()
	switch f {
	case Exp, Exp2, Exp10:
		if a != 0 {
			r := dd{x, 0}
			switch f {
			case Exp2:
				r = mulDF(t.ln2, x)
			case Exp10:
				r = mulDF(t.ln10, x)
			}
			return refExpm1(r)
		}
		return refExp(f, x)
	}
	y := refLog(x)
	switch f {
	case Log2:
		y = mulDD(y, t.invLn2)
	case Log10:
		y = mulDD(y, t.invLn10)
	}
	return y
}

// refExp evaluates the exponential family as 2^k * 2^(j/128) * (1 +
// expm1(r)), with the reduced argument r carried as a double-word.
func refExp(f Func, x float64) dd {
	t := buildRefTables()
	var n float64
	var r dd
	switch f {
	case Exp:
		n = math.RoundToEven(x * (rungTabN / math.Ln2))
		r = codyWaite(x, n, &t.ln2S)
	case Exp2:
		n = math.RoundToEven(x * rungTabN)
		r = mulDF(t.ln2, x-n/rungTabN)
	case Exp10:
		n = math.RoundToEven(x * (rungTabN * math.Ln10 / math.Ln2))
		r = mulDD(codyWaite(x, n, &t.log102S), t.ln10)
	}
	tj := t.exp2j[int(n)&(rungTabN-1)]
	y := addDD(tj, mulDD(tj, refExpm1(r)))
	k := int(math.Floor(n / rungTabN))
	return dd{math.Ldexp(y.hi, k), math.Ldexp(y.lo, k)}
}

// codyWaite returns x - n*c/128 as a double-word for the split
// c = s[0]+s[1]+s[2]: n*s[0]/128 is exact for |n| < 2^17, and so is the
// subtraction from x (see expRung).
func codyWaite(x, n float64, s *[3]float64) dd {
	hi := x - n*(s[0]/rungTabN)
	p, pe := twoProd(n, s[1]/rungTabN)
	sh, se := twoSum(hi, -p)
	sh, se = fastTwoSum(sh, se-pe-n*(s[2]/rungTabN))
	return dd{sh, se}
}

// refExpm1 is the degree-12 Taylor polynomial of expm1 at 0 for
// |r| <= 2^-8.4: degrees 10-12 run in float64 on r.hi, degrees 1-9 as
// double-word Horner steps.
func refExpm1(r dd) dd {
	h := r.hi
	p := ((1.0/479001600*h+1.0/39916800)*h+1.0/3628800)*h + 1.0/362880 // 1/(k+1)! for k = 11..8
	return mulDD(horner(p, r, buildRefTables().expm1C[1:]), r)
}

// refLog evaluates ln x with logRung's slot layout, in double-words.
func refLog(x float64) dd {
	t := buildRefTables()
	bits := math.Float64bits(x)
	e := int(bits>>52) - 1023
	if e == -1023 {
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
	r := dd{rh, rl}
	// log1p to degree 15: degrees 9-15 in float64 on r.hi.
	h := r.hi
	q := (((((1.0/15*h-1.0/14)*h+1.0/13)*h-1.0/12)*h+1.0/11)*h-1.0/10)*h + 1.0/9
	y := addDD(t.logL[i], mulDD(horner(q, r, t.log1pC[:]), r))
	if e != 0 {
		y = addDD(mulDF(t.ln2, float64(e)), y)
	}
	return y
}

// horner evaluates (...((p*r + c[0])*r + c[1])*r ...) + c[n-1] for a
// float64 tail value p, with double-word products and sums.
func horner(p float64, r dd, c []dd) dd {
	y := mulDF(r, p)
	for i := range c {
		if i > 0 {
			y = mulDD(y, r)
		}
		y = addDD(y, c[i])
	}
	return y
}
