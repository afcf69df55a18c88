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
//
// The work happens on x's bit pattern. Positive float64 patterns are
// ordered like their values, and within the format's finite range one
// format ulp is a fixed number of low pattern bits (shift): clearing them
// truncates, and adding one unit at bit shift steps to the next format
// value, a carry into the exponent field included.
func (f Format) Round(x float64, m Mode) float64 {
	b := math.Float64bits(x)
	a := b &^ (1 << 63)
	if a == 0 || a >= 0x7FF<<52 {
		return x // zero, infinity or NaN
	}
	neg := b != a
	prec, bias, maxBits := f.layout()
	if a > maxBits {
		return f.roundOverflow(math.Float64frombits(a), neg, m)
	}

	mnt := a & (1<<52 - 1)
	if a>>52 != 0 {
		mnt |= 1 << 52
	}
	shift := ulpShift(a, prec, bias)

	// q is the kept significand, a multiple of the format's ulp; only its
	// parity matters. At shift 52 it is the implicit bit, not bit 52 of a.
	var qOdd, roundBit, sticky bool
	switch {
	case shift <= 52:
		qOdd = mnt>>shift&1 != 0
		roundBit = mnt>>(shift-1)&1 != 0
		sticky = mnt&(1<<(shift-1)-1) != 0
	case shift == 53:
		roundBit = mnt>>52 != 0
		sticky = mnt&(1<<52-1) != 0
	default:
		sticky = true // a lies wholly below half the format's ulp
	}

	inexact := roundBit || sticky
	var inc bool
	switch m {
	case RNE:
		inc = roundBit && (sticky || qOdd)
	case RNA:
		inc = roundBit
	case RTP:
		inc = !neg && inexact
	case RTN:
		inc = neg && inexact
	case RTO:
		inc = inexact && !qOdd
	}

	var r uint64
	if shift <= 52 {
		r = a &^ (1<<shift - 1)
		if inc {
			r += 1 << shift
		}
	} else if inc {
		// q is 0, so the result is 0 or the smallest subnormal,
		// 2^(minExp-prec+1).
		lsb := (1 - bias) - prec + 1
		if lsb >= -1022 {
			r = uint64(lsb+1023) << 52
		} else {
			r = 1 << (lsb + 1074)
		}
	}
	if r > maxBits {
		r = 0x7FF << 52 // carry past the largest binade
	}
	if neg {
		r |= 1 << 63
	}
	return math.Float64frombits(r)
}

// layout returns the format's precision, its exponent bias and the float64
// bit pattern of its largest finite value, with integer operations only.
func (f Format) layout() (prec, bias int, maxBits uint64) {
	prec = f.Bits - f.ExpBits
	bias = 1<<(f.ExpBits-1) - 1
	return prec, bias, uint64(bias+1023)<<52 | (1<<52 - 1<<(53-prec))
}

// ulpShift returns how many low bits of a, the float64 bit pattern of a
// positive value at most MaxFinite, lie below the format's ulp at that
// value. The ulp is 2^(max(e, minExp)-prec+1) for the value's unbiased
// exponent e; a float64 subnormal counts as exponent field 1 without the
// implicit bit, so the same formula covers it.
func ulpShift(a uint64, prec, bias int) int {
	return 53 - prec + max(0, (1-bias)+1023-max(int(a>>52), 1))
}

// roundOverflow rounds a magnitude a = |x| beyond the format's finite
// range; neg is x's sign.
func (f Format) roundOverflow(a float64, neg bool, m Mode) float64 {
	max := f.MaxFinite()
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
	return r
}
