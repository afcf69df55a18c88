package fp

import (
	"math"
)

// Round rounds the float64 value x to the format under rounding mode m and
// returns the result as a float64 (which carries the format value exactly,
// or ±Inf on overflow). This is the fast bit-manipulation path used on the
// hot side of the pipeline; RoundRat is the exact arbitrary-precision
// reference.
//
// Rounding is exact: the float64 input is treated as the precise real value
// it encodes. NaN rounds to NaN; signed zeros and infinities are preserved.
func (f Format) Round(x float64, m Mode) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0) || x == 0:
		return x
	}
	neg := math.Signbit(x)
	a := math.Abs(x)

	if over, res := f.roundOverflow(a, neg, m); over {
		return res
	}

	// Decompose a = M * 2^k exactly with M a positive integer < 2^53.
	bits := math.Float64bits(a)
	fexp := int(bits>>52) & 0x7FF
	frac := bits & (1<<52 - 1)
	var mnt uint64
	var k int
	if fexp == 0 {
		mnt, k = frac, -1074
	} else {
		mnt, k = frac|1<<52, fexp-1075
	}

	// Granularity of the target format around a.
	e2 := math.Ilogb(a)
	lsb := e2 - f.Prec() + 1
	if e2 < f.MinExp() {
		lsb = f.MinExp() - f.Prec() + 1 // fixed subnormal granularity
	}

	shift := lsb - k
	if shift <= 0 {
		return x // already on the target grid
	}

	var q, roundBit uint64
	var sticky bool
	if shift > 53 {
		// The value is entirely below the rounding position.
		q, roundBit, sticky = 0, 0, mnt != 0
	} else {
		q = mnt >> uint(shift)
		roundBit = (mnt >> uint(shift-1)) & 1
		sticky = mnt&(uint64(1)<<uint(shift-1)-1) != 0
	}

	inexact := roundBit == 1 || sticky
	var inc bool
	switch m {
	case RNE:
		inc = roundBit == 1 && (sticky || q&1 == 1)
	case RNA:
		inc = roundBit == 1
	case RTZ:
		inc = false
	case RTP:
		inc = !neg && inexact
	case RTN:
		inc = neg && inexact
	case RTO:
		inc = inexact && q&1 == 0
	}
	if inc {
		q++
	}
	// q*2^lsb is a format value (or 2^(MaxExp+1) after a carry), hence a
	// float64: one multiplication by the exact power of two yields it.
	res := float64(q) * pow2(lsb)
	if res > f.MaxFinite() {
		res = math.Inf(1) // carry past the largest binade
	}
	if neg {
		res = -res
	}
	if res == 0 {
		return math.Copysign(0, x)
	}
	return res
}

// roundOverflow handles |x| beyond the format's finite range. It returns
// over=false when a is within range and ordinary rounding should proceed.
func (f Format) roundOverflow(a float64, neg bool, m Mode) (over bool, res float64) {
	max := f.MaxFinite()
	if a <= max {
		return false, 0
	}
	// Threshold at which round-to-nearest overflows: halfway between
	// MaxFinite and the next (unrepresentable) binade value 2^(MaxExp+1).
	// Both are exact in float64 because Prec <= 52.
	thresh := math.Ldexp(float64(uint64(1)<<(f.Prec()+1)-1), f.MaxExp()-f.Prec())
	var r float64
	switch m {
	case RNE, RNA:
		if a >= thresh {
			r = math.Inf(1)
		} else {
			r = max
		}
	case RTZ:
		r = max
	case RTP:
		if neg {
			r = max
		} else {
			r = math.Inf(1)
		}
	case RTN:
		if neg {
			r = math.Inf(1)
		} else {
			r = max
		}
	case RTO:
		// MaxFinite has an all-ones (odd) significand; infinity's encoding
		// is even, so round-to-odd saturates at MaxFinite.
		r = max
	}
	if neg {
		r = -r
	}
	return true, r
}

// pow2 returns 2^k exactly for -1074 <= k <= 1023.
func pow2(k int) float64 {
	if k < -1022 {
		return math.Float64frombits(1 << uint(k+1074)) // subnormal
	}
	return math.Float64frombits(uint64(k+1023) << 52)
}
