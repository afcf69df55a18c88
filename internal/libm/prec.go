package libm

import (
	"math"
	"sync"

	"rlibm/internal/fp"
)

// Serving precisions (RLIBM-ALL). The full kernel's double lies in the
// 34-bit round-to-odd interval of the exact result, and round-to-odd
// composes down across a gap of at least two bits, so that double rounded
// once to any format with an 8-bit exponent and at most 32 bits is the
// correctly rounded value of that format, for every float32 input — on the
// narrow format's own grid or not. A narrow precision is therefore exactly
// a post-hoc rounding of the full kernel's double: one kernel per function
// and scheme serves every format. The two narrow precisions served here are
// the ML formats in the float32 exponent family:
//
//   - bf16: bfloat16 (fp16_e8, 8-bit significand precision);
//   - tf32: the FP16-class format with an 8-bit exponent (fp19_e8, NVIDIA's
//     TensorFloat32 layout, 11-bit significand precision). IEEE binary16's
//     5-bit exponent is outside the RLibm-ALL 8-bit-exponent guarantee, so
//     "fp16" requests resolve to this format.
type PrecSpec struct {
	Name string    // canonical short name ("tf32", "bf16")
	Out  fp.Format // output format the full kernel's double is rounded to
}

// PrecSpecs lists the narrow serving precisions in wire-code order
// (full float32 is code 0; tf32 is 1, bf16 is 2).
var PrecSpecs = []PrecSpec{
	{Name: "tf32", Out: fp.TensorFloat32},
	{Name: "bf16", Out: fp.Bfloat16},
}

// PrecSpecByName resolves a PrecSpec from its canonical name.
func PrecSpecByName(name string) (PrecSpec, bool) {
	for _, ps := range PrecSpecs {
		if ps.Name == name {
			return ps, true
		}
	}
	return PrecSpec{}, false
}

// shift is the count of float64 significand bits below the format's ulp.
func (ps PrecSpec) shift() uint { return uint(52 - ps.Out.SigBits()) }

// Kernel returns the precision's scalar kernel over the full kernel full:
// full's double rounded once to the output format.
func (ps PrecSpec) Kernel(full func(float64) float64) func(float64) float64 {
	shift, out := ps.shift(), ps.Out
	return func(x float64) float64 { return roundNarrow(full(x), shift, out) }
}

// narrowBufs holds the float64 staging blocks of the narrowing batches. The
// block kernel is a func value, so a stack buffer handed to it would escape
// to the heap on every call; a pooled block keeps the batch path free of
// allocations.
var narrowBufs = sync.Pool{New: func() any { return new([generatedBatchBlock]float64) }}

// Batch returns the precision's float32 batch kernel over a full block
// kernel (a GeneratedBlockFuncs or GeneratedVecBlockFuncs entry): each
// block of src is widened, run through block, rounded once to the output
// format, and narrowed into dst — the conversions through the assembly
// staging when asmConv. dst must be at least as long as src; results are
// bit-identical to Kernel over the matching scalar kernel.
func (ps PrecSpec) Batch(block func([]float64), asmConv bool) func(dst, src []float32) {
	shift, out := ps.shift(), ps.Out
	return func(dst, src []float32) {
		_ = dst[:len(src)]
		buf := narrowBufs.Get().(*[generatedBatchBlock]float64)
		for base := 0; base < len(src); base += generatedBatchBlock {
			n := min(len(src)-base, generatedBatchBlock)
			b, sb, db := buf[:n], src[base:base+n], dst[base:base+n]
			if asmConv {
				widenF32(b, sb)
			} else {
				for i := range b {
					b[i] = float64(sb[i])
				}
			}
			block(b)
			roundBlock(b, shift, out)
			if asmConv {
				narrowF32(db, b)
			} else {
				for i := range db {
					db[i] = float32(b[i])
				}
			}
		}
		narrowBufs.Put(buf)
	}
}

// Narrow rounding. roundBlock rounds raw doubles in place to round-to-
// nearest-even at a format with prec = 53-shift significand bits and an
// 8-bit exponent; every bfloat16/tf32 value embeds exactly in float32 and
// float64. The double carries >= prec+2 significand bits, so rounding it
// directly is the correctly rounded result; an intermediate float64->float32
// RNE conversion could double-round.
//
// Everything but a subnormal result is handled on the float64 bits inside
// the loop, which keeps the loop free of calls:
//
//   - NaNs and infinities are kept as they are;
//   - from the smallest normal up (biased exponent 897, unbiased -126; both
//     formats share the float32 exponent field), an integer add-and-mask
//     rounds to nearest even, and a result of 2^128 or more becomes an
//     infinity;
//   - magnitudes below half the smallest subnormal, 2^(-126-prec) =
//     2^(shift-179), round to a signed zero.
//
// Those cover the full kernels' underflow, saturation and domain results,
// about half of a whole-format table.
//
// Subnormal results take the exact fp.Format.Round.
func roundBlock(b []float64, shift uint, out fp.Format) {
	lsb := uint64(1) << (shift & 63)
	half, keep := lsb>>1-1, -lsb
	tiny := uint64(shift) + 844 // biased exponent of half the smallest subnormal
	for i, d := range b {
		u := math.Float64bits(d)
		switch e := u >> 52 & 0x7ff; {
		case e == 0x7ff:
			continue
		case e >= 897:
			if u&lsb != 0 {
				u++
			}
			u = (u + half) & keep
			if u<<1 >= 1151<<53 {
				u = u>>63<<63 | 0x7ff<<52
			}
		case e < tiny:
			u &= 1 << 63
		default:
			b[i] = out.Round(d, fp.RNE)
			continue
		}
		b[i] = math.Float64frombits(u)
	}
}

// roundNarrow is roundBlock on one value.
func roundNarrow(d float64, shift uint, out fp.Format) float64 {
	b := [1]float64{d}
	roundBlock(b[:], shift, out)
	return b[0]
}
