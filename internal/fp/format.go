// Package fp implements parameterized binary floating-point formats with all
// five IEEE-754 rounding modes plus round-to-odd.
//
// A Format describes an IEEE-754-style binary interchange format with a
// configurable total width and exponent width. Every value of every format
// supported here is exactly representable as a float64, so format values are
// carried around as float64 and all rounding helpers return float64.
//
// This package is the substrate for the RLibm-ALL insight reproduced in this
// repository: a polynomial that produces the correctly rounded round-to-odd
// result for the (n+2)-bit format yields correctly rounded results for every
// format with E+2..n bits under all five standard rounding modes (Figure 5 of
// the CGO 2023 paper).
package fp

import (
	"fmt"
	"math"
)

// Mode is a rounding mode.
type Mode uint8

const (
	// RNE rounds to nearest, ties to even (the IEEE default).
	RNE Mode = iota
	// RNA rounds to nearest, ties away from zero.
	RNA
	// RTZ rounds toward zero (truncation).
	RTZ
	// RTP rounds toward positive infinity.
	RTP
	// RTN rounds toward negative infinity.
	RTN
	// RTO is round-to-odd: exact values are preserved; inexact values round
	// to the adjacent representable value whose encoding is odd.
	RTO
)

// StandardModes lists the five rounding modes of the IEEE-754 standard.
var StandardModes = []Mode{RNE, RNA, RTZ, RTP, RTN}

// AllModes lists the standard modes plus round-to-odd.
var AllModes = []Mode{RNE, RNA, RTZ, RTP, RTN, RTO}

func (m Mode) String() string {
	switch m {
	case RNE:
		return "rne"
	case RNA:
		return "rna"
	case RTZ:
		return "rtz"
	case RTP:
		return "rtp"
	case RTN:
		return "rtn"
	case RTO:
		return "rto"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Format describes a binary floating-point format with Bits total bits, of
// which 1 is the sign, ExpBits encode the exponent, and the rest encode the
// trailing significand. The format follows IEEE-754 conventions: a biased
// exponent, gradual underflow (subnormals), signed zeros, infinities, and
// NaNs.
type Format struct {
	Bits    int // total width in bits
	ExpBits int // exponent field width in bits
}

// Predefined formats used throughout the repository.
var (
	// Float32 is the IEEE binary32 format.
	Float32 = Format{Bits: 32, ExpBits: 8}
	// FP34 is the 34-bit format with an 8-bit exponent used by RLibm-ALL:
	// two extra significand bits relative to binary32.
	FP34 = Format{Bits: 34, ExpBits: 8}
	// Bfloat16 is Google's brain floating point format.
	Bfloat16 = Format{Bits: 16, ExpBits: 8}
	// TensorFloat32 is NVIDIA's 19-bit TF32 format (8-bit exponent, 10
	// explicit mantissa bits).
	TensorFloat32 = Format{Bits: 19, ExpBits: 8}
	// Float16 is the IEEE binary16 format.
	Float16 = Format{Bits: 16, ExpBits: 5}
)

// Validate reports whether the format is supported by this package: the
// trailing significand must be non-empty, the exponent field must be between
// 2 and 11 bits, and every value must embed exactly into a float64.
func (f Format) Validate() error {
	if f.ExpBits < 2 || f.ExpBits > 11 {
		return fmt.Errorf("fp: exponent width %d out of range [2,11]", f.ExpBits)
	}
	if f.SigBits() < 1 {
		return fmt.Errorf("fp: format %v has no significand bits", f)
	}
	if f.Prec() > 52 {
		return fmt.Errorf("fp: precision %d exceeds the 52-bit limit for exact float64 embedding", f.Prec())
	}
	// The smallest subnormal is 2^(Emin-Prec+1); it must be representable in
	// float64 (whose smallest subnormal is 2^-1074).
	if f.MinExp()-f.Prec()+1 < -1074 {
		return fmt.Errorf("fp: format %v underflows the float64 subnormal range", f)
	}
	return nil
}

func (f Format) String() string {
	return fmt.Sprintf("fp%d_e%d", f.Bits, f.ExpBits)
}

// SigBits returns the number of explicitly stored trailing significand bits.
func (f Format) SigBits() int { return f.Bits - 1 - f.ExpBits }

// Prec returns the precision (significand length including the implicit
// leading bit).
func (f Format) Prec() int { return f.SigBits() + 1 }

// Bias returns the exponent bias.
func (f Format) Bias() int { return 1<<(f.ExpBits-1) - 1 }

// MaxExp returns the largest unbiased exponent of a normal value.
func (f Format) MaxExp() int { return f.Bias() }

// MinExp returns the smallest unbiased exponent of a normal value.
func (f Format) MinExp() int { return 1 - f.Bias() }

// MaxFinite returns the largest finite value of the format.
func (f Format) MaxFinite() float64 {
	// Biased float64 exponent MaxExp, the top Prec-1 fraction bits set.
	frac := uint64(1)<<52 - uint64(1)<<uint(53-f.Prec())
	return math.Float64frombits(uint64(f.MaxExp()+1023)<<52 | frac)
}

// MinNormal returns the smallest positive normal value.
func (f Format) MinNormal() float64 { return math.Ldexp(1, f.MinExp()) }

// MinSubnormal returns the smallest positive subnormal value.
func (f Format) MinSubnormal() float64 { return math.Ldexp(1, f.MinExp()-f.Prec()+1) }

// Count returns the total number of bit patterns of the format.
func (f Format) Count() uint64 { return uint64(1) << uint(f.Bits) }

// expMask returns the all-ones biased exponent field value.
func (f Format) expMask() uint64 { return uint64(1)<<uint(f.ExpBits) - 1 }

// sigMask returns the mask of the trailing significand field.
func (f Format) sigMask() uint64 { return uint64(1)<<uint(f.SigBits()) - 1 }

// NaNBits returns the canonical quiet NaN bit pattern of the format.
func (f Format) NaNBits() uint64 {
	return f.expMask()<<uint(f.SigBits()) | uint64(1)<<uint(f.SigBits()-1)
}

// InfBits returns the bit pattern of +infinity (OR with the sign bit for
// -infinity).
func (f Format) InfBits() uint64 { return f.expMask() << uint(f.SigBits()) }

// SignBit returns the sign bit mask.
func (f Format) SignBit() uint64 { return uint64(1) << uint(f.Bits-1) }

// FromBits decodes a bit pattern of the format into the float64 carrying its
// exact value. NaN patterns decode to float64 NaN.
func (f Format) FromBits(b uint64) float64 {
	sign := b&f.SignBit() != 0
	exp := (b >> uint(f.SigBits())) & f.expMask()
	sig := b & f.sigMask()
	var v float64
	switch {
	case exp == f.expMask():
		if sig != 0 {
			return math.NaN()
		}
		v = math.Inf(1)
	case exp == 0:
		v = math.Ldexp(float64(sig), f.MinExp()-f.Prec()+1)
	default:
		v = math.Ldexp(float64(sig|uint64(1)<<uint(f.SigBits())), int(exp)-f.Bias()-f.Prec()+1)
	}
	if sign {
		v = -v
	}
	return v
}

// ToBits encodes a float64 into the format's bit pattern. ok is false when
// the value is finite but not exactly representable in the format. NaN
// encodes to the canonical NaN pattern; infinities and signed zeros encode
// exactly.
func (f Format) ToBits(x float64) (bits uint64, ok bool) {
	switch {
	case math.IsNaN(x):
		return f.NaNBits(), true
	case math.IsInf(x, 1):
		return f.InfBits(), true
	case math.IsInf(x, -1):
		return f.InfBits() | f.SignBit(), true
	case x == 0:
		if math.Signbit(x) {
			return f.SignBit(), true
		}
		return 0, true
	}
	var sign uint64
	a := x
	if a < 0 {
		sign = f.SignBit()
		a = -a
	}
	if a > f.MaxFinite() {
		return 0, false
	}
	e := math.Ilogb(a)
	if e >= f.MinExp() {
		// Normal candidate: significand in [2^(P-1), 2^P).
		sig := math.Ldexp(a, f.Prec()-1-e)
		if sig != math.Trunc(sig) {
			return 0, false
		}
		m := uint64(sig)
		return sign | uint64(e+f.Bias())<<uint(f.SigBits()) | (m &^ (uint64(1) << uint(f.SigBits()))), true
	}
	// Subnormal candidate.
	sig := math.Ldexp(a, f.Prec()-1-f.MinExp())
	if sig != math.Trunc(sig) || sig >= math.Ldexp(1, f.SigBits()) {
		return 0, false
	}
	return sign | uint64(sig), true
}

// IsRepresentable reports whether x (including infinities and NaN) is exactly
// representable in the format.
func (f Format) IsRepresentable(x float64) bool {
	_, ok := f.ToBits(x)
	return ok
}

// ordKey maps a non-NaN bit pattern to a monotonically ordered integer so
// that consecutive keys correspond to adjacent format values.
func (f Format) ordKey(b uint64) int64 {
	if b&f.SignBit() != 0 {
		return -int64(b &^ f.SignBit())
	}
	return int64(b)
}

// fromOrdKey is the inverse of ordKey.
func (f Format) fromOrdKey(k int64) uint64 {
	if k < 0 {
		return uint64(-k) | f.SignBit()
	}
	return uint64(k)
}

// NextUp returns the smallest format value strictly greater than x.
// NextUp(MaxFinite) is +Inf; NextUp(+Inf) is +Inf; NaN propagates.
// By IEEE-754 convention NextUp(-MinSubnormal) is -0 and NextUp(-0) ==
// NextUp(+0) == MinSubnormal.
func (f Format) NextUp(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return x
	case x == 0:
		return f.MinSubnormal()
	}
	b, ok := f.ToBits(x)
	if !ok {
		panic(fmt.Sprintf("fp: NextUp of %g, not representable in %v", x, f))
	}
	k := f.ordKey(b) + 1
	if k == 0 {
		return math.Copysign(0, -1) // from -MinSubnormal to -0
	}
	return f.FromBits(f.fromOrdKey(k))
}

// NextDown returns the largest format value strictly less than x, with
// conventions symmetric to NextUp.
func (f Format) NextDown(x float64) float64 {
	return -f.NextUp(-x)
}

// Values calls yield for every value of the format in bit-pattern order
// (all non-negative patterns then all negative patterns), including ±0,
// ±Inf and NaN patterns. Iteration stops early if yield returns false.
func (f Format) Values(yield func(bits uint64, v float64) bool) {
	n := f.Count()
	for b := uint64(0); b < n; b++ {
		if !yield(b, f.FromBits(b)) {
			return
		}
	}
}

// FiniteValues calls yield for every finite value of the format in
// bit-pattern order. Iteration stops early if yield returns false.
func (f Format) FiniteValues(yield func(bits uint64, v float64) bool) {
	f.Values(func(b uint64, v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return yield(b, v)
	})
}
