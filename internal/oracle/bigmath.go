package oracle

import (
	"math"
	"math/big"
	"sync"
)

// Constants ln2, ln10 and log2(10) are computed once at a generous precision
// and re-derived (extended) lazily when a caller needs more bits.
var constCache struct {
	sync.Mutex
	prec   uint
	ln2    *big.Float
	ln10   *big.Float
	log210 *big.Float
}

// consts returns ln2, ln10 and log2(10) valid to at least prec bits.
func consts(prec uint) (ln2, ln10, log210 *big.Float) {
	c := &constCache
	c.Lock()
	defer c.Unlock()
	if c.prec < prec {
		wp := prec + 64
		// ln2 = 2*atanh(1/3); ln10 = 3*ln2 + 2*atanh(1/9).
		third := new(big.Float).SetPrec(wp).Quo(big.NewFloat(1).SetPrec(wp), big.NewFloat(3).SetPrec(wp))
		ninth := new(big.Float).SetPrec(wp).Quo(big.NewFloat(1).SetPrec(wp), big.NewFloat(9).SetPrec(wp))
		l2 := atanhSeries(third, wp)
		l2.Mul(l2, big.NewFloat(2).SetPrec(wp))
		a9 := atanhSeries(ninth, wp)
		l10 := new(big.Float).SetPrec(wp).Mul(l2, big.NewFloat(3).SetPrec(wp))
		a9.Mul(a9, big.NewFloat(2).SetPrec(wp))
		l10.Add(l10, a9)
		lg210 := new(big.Float).SetPrec(wp).Quo(l10, l2)
		c.prec, c.ln2, c.ln10, c.log210 = prec, l2, l10, lg210
	}
	return c.ln2, c.ln10, c.log210
}

// Constants returns ln(2), ln(10) and log2(10) valid to at least prec bits.
// The range-reduction layer derives its double-precision constants and
// Cody–Waite splits from these.
func Constants(prec uint) (ln2, ln10, log210 *big.Float) {
	return consts(prec)
}

// recipCache holds 1/k at a generous precision: multiplying by a cached
// reciprocal is much cheaper than an arbitrary-precision division per series
// term.
var recipCache struct {
	sync.Mutex
	prec uint
	inv  []*big.Float // inv[k] = 1/k
}

// recips returns a snapshot slice with recips[k] = 1/k for k <= maxK, valid
// to at least prec bits. The returned slice and its entries are immutable,
// so callers may use them without holding the lock.
func recips(maxK int, prec uint) []*big.Float {
	c := &recipCache
	c.Lock()
	defer c.Unlock()
	if c.prec < prec {
		c.prec = prec + 128
		c.inv = nil
	}
	for len(c.inv) <= maxK {
		n := len(c.inv)
		if n == 0 {
			c.inv = append(c.inv, nil)
			continue
		}
		one := big.NewFloat(1).SetPrec(c.prec)
		c.inv = append(c.inv, one.Quo(one, new(big.Float).SetPrec(c.prec).SetInt64(int64(n))))
	}
	return c.inv[:maxK+1]
}

// atanhSeries computes atanh(t) = t + t^3/3 + t^5/5 + ... for |t| < 1/2 at
// working precision wp, truncating when terms fall below 2^-(wp+8). The
// truncation error is below the last term, so the relative error of the
// result is a few ulps at wp.
func atanhSeries(t *big.Float, wp uint) *big.Float {
	sum := new(big.Float).SetPrec(wp).Set(t)
	t2 := new(big.Float).SetPrec(wp).Mul(t, t)
	pow := new(big.Float).SetPrec(wp).Set(t)
	term := new(big.Float).SetPrec(wp)
	cut := -int(wp) - 8
	maxK := int(wp)/2 + 16 // more terms than the worst case (|t| < 1/2) needs
	inv := recips(maxK, wp)
	for k := 3; ; k += 2 {
		pow.Mul(pow, t2)
		if k >= len(inv) {
			inv = recips(k+16, wp)
		}
		term.Mul(pow, inv[k])
		if term.Sign() == 0 || term.MantExp(nil) < cut+sum.MantExp(nil) {
			break
		}
		sum.Add(sum, term)
	}
	return sum
}

// expCore computes exp(r) for |r| <= 1 at working precision wp using an
// s-step argument halving followed by a Taylor series and s squarings.
func expCore(r *big.Float, wp uint) *big.Float {
	const s = 8
	if r.Sign() == 0 {
		return big.NewFloat(1).SetPrec(wp)
	}
	rs := new(big.Float).SetPrec(wp)
	rs.SetMantExp(r, -s) // r / 2^s, exact

	// Taylor: sum r^k / k!.
	sum := big.NewFloat(1).SetPrec(wp)
	term := new(big.Float).SetPrec(wp).SetInt64(1)
	cut := -int(wp) - 8
	inv := recips(int(wp)/9+16, wp)
	for k := 1; ; k++ {
		term.Mul(term, rs)
		if k >= len(inv) {
			inv = recips(k+16, wp)
		}
		term.Mul(term, inv[k])
		sum.Add(sum, term)
		if term.MantExp(nil) < cut {
			break
		}
	}
	for i := 0; i < s; i++ {
		sum.Mul(sum, sum)
	}
	return sum
}

// expBig computes exp(x) with relative error below 2^-(prec) at working
// precision prec+48. |x| must be at most 1e8.
func expBig(x *big.Float, prec uint) *big.Float {
	wp := prec + 48
	if x.Sign() == 0 {
		return big.NewFloat(1).SetPrec(wp)
	}
	ln2, _, _ := consts(wp)
	// n = round(x / ln2).
	q := new(big.Float).SetPrec(64).Quo(x, ln2)
	qf, _ := q.Float64()
	n := int(math.RoundToEven(qf))
	// r = x - n*ln2, |r| <= ln2/2 + slack.
	r := new(big.Float).SetPrec(wp).SetInt64(int64(n))
	r.Mul(r, ln2)
	r.Sub(new(big.Float).SetPrec(wp).Set(x), r)
	y := expCore(r, wp)
	y.SetMantExp(y, n)
	return y
}

// logBig computes ln(x) for x > 0 with relative error below 2^-(prec) at
// working precision prec+48.
func logBig(x *big.Float, prec uint) *big.Float {
	wp := prec + 48
	ln2, _, _ := consts(wp)
	mant := new(big.Float).SetPrec(wp)
	e := x.MantExp(mant) // x = mant * 2^e, mant in [0.5, 1)
	// Balance the reduction so mant' is in [sqrt(2)/2, sqrt(2)): the atanh
	// argument then stays below ~0.1716 and no catastrophic cancellation
	// occurs between ln(mant') and e'*ln2.
	sqrt2half := big.NewFloat(math.Sqrt2 / 2)
	if mant.Cmp(sqrt2half) < 0 {
		mant.SetMantExp(mant, 1) // mant *= 2
		e--
	}
	one := big.NewFloat(1).SetPrec(wp)
	num := new(big.Float).SetPrec(wp).Sub(mant, one)
	den := new(big.Float).SetPrec(wp).Add(mant, one)
	t := new(big.Float).SetPrec(wp).Quo(num, den)
	lnm := atanhSeries(t, wp)
	lnm.SetMantExp(lnm, 1) // * 2
	if e != 0 {
		et := new(big.Float).SetPrec(wp).SetInt64(int64(e))
		et.Mul(et, ln2)
		lnm.Add(lnm, et)
	}
	return lnm
}

// exp2Big computes 2^x with relative error below 2^-(prec).
func exp2Big(x *big.Float, prec uint) *big.Float {
	wp := prec + 32
	if x.Sign() == 0 {
		return big.NewFloat(1).SetPrec(wp)
	}
	ln2, _, _ := consts(wp)
	xf, _ := x.Float64()
	n := int(math.RoundToEven(xf))
	// f = x - n is exact (x is a dyadic value, n an integer).
	f := new(big.Float).SetPrec(wp).Sub(x, new(big.Float).SetPrec(wp).SetInt64(int64(n)))
	r := new(big.Float).SetPrec(wp).Mul(f, ln2)
	y := expCore(r, wp)
	y.SetMantExp(y, n)
	return y
}

// exp10Big computes 10^x with relative error below 2^-(prec).
func exp10Big(x *big.Float, prec uint) *big.Float {
	wp := prec + 64
	if x.Sign() == 0 {
		return big.NewFloat(1).SetPrec(wp)
	}
	_, _, log210 := consts(wp)
	// 10^x = 2^(x*log2(10)). n = round(x*log2(10)); the reduced exponent
	// f = x*log2(10) - n is computed at wp, absorbing the cancellation.
	t := new(big.Float).SetPrec(wp).Mul(new(big.Float).SetPrec(wp).Set(x), log210)
	tf, _ := t.Float64()
	n := int(math.RoundToEven(tf))
	f := new(big.Float).SetPrec(wp).Sub(t, new(big.Float).SetPrec(wp).SetInt64(int64(n)))
	ln2, _, _ := consts(wp)
	r := new(big.Float).SetPrec(wp).Mul(f, ln2)
	y := expCore(r, wp)
	y.SetMantExp(y, n)
	return y
}

// log2Big computes log2(x) for x > 0 with relative error below 2^-(prec).
func log2Big(x *big.Float, prec uint) *big.Float {
	l := logBig(x, prec+8)
	ln2, _, _ := consts(l.Prec())
	return l.Quo(l, ln2)
}

// log10Big computes log10(x) for x > 0 with relative error below 2^-(prec).
func log10Big(x *big.Float, prec uint) *big.Float {
	l := logBig(x, prec+8)
	_, ln10, _ := consts(l.Prec())
	return l.Quo(l, ln10)
}
