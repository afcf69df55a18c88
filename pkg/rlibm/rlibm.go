// Package rlibm is the public face of the repository's generated math
// library: the six correctly rounded elementary functions of the CGO 2023
// paper (e^x, 2^x, 10^x, ln x, log2 x, log10 x), each available in the four
// polynomial-evaluation variants the paper compares (Horner, Knuth-adapted,
// Estrin, Estrin+FMA), plus batch kernels that evaluate whole slices with
// the per-call dispatch overhead paid once.
//
// Every result is the correctly rounded float32 under round-to-nearest-even;
// the same double-precision polynomials also yield correctly rounded results
// for every format from 10 to 32 bits (8-bit exponent) under all five IEEE
// rounding modes — see internal/libm for the raw-double entry points and
// internal/fp for the rounding machinery.
//
// The scalar functions (Exp, Log2, ...) are one-call conveniences. The batch
// functions (ExpBatch, Log2Batch, EvalBatch, ...) are the serving-layer hot
// path: they resolve the function/scheme kernel once, run a tight loop with
// zero heap allocations, and fan out across goroutines for large slices.
// Batch results are bit-identical to the corresponding scalar calls for
// every input, every scheme and every slice length.
package rlibm

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"rlibm/internal/libm"
)

// Scheme selects one of the four generated polynomial-evaluation variants.
type Scheme int

const (
	// Horner is the RLibm baseline: a serial multiply-add chain.
	Horner Scheme = iota
	// Knuth uses Knuth's coefficient adaptation.
	Knuth
	// Estrin uses Estrin's parallel evaluation.
	Estrin
	// EstrinFMA combines Estrin's evaluation with fused multiply-adds — the
	// paper's fastest configuration and this package's default.
	EstrinFMA

	// NumSchemes is the number of variants.
	NumSchemes = 4
)

// Schemes lists the four variants in the paper's order.
var Schemes = [NumSchemes]Scheme{Horner, Knuth, Estrin, EstrinFMA}

// String returns the variant's canonical name ("rlibm", "rlibm-knuth",
// "rlibm-estrin", "rlibm-estrin-fma"), matching the names the CLIs and the
// rlibm-serve URL space use.
func (s Scheme) String() string {
	if s.valid() {
		return libm.Scheme(s).String()
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

func (s Scheme) valid() bool { return s >= Horner && s <= EstrinFMA }

// ParseScheme resolves a scheme name, case-insensitively. It accepts the
// canonical names ("rlibm", "rlibm-knuth", "rlibm-estrin",
// "rlibm-estrin-fma") and the short generator spellings ("horner", "knuth",
// "estrin", "estrin-fma").
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "rlibm", "horner":
		return Horner, nil
	case "rlibm-knuth", "knuth":
		return Knuth, nil
	case "rlibm-estrin", "estrin":
		return Estrin, nil
	case "rlibm-estrin-fma", "estrin-fma":
		return EstrinFMA, nil
	}
	return 0, errUnknownScheme(name)
}

// Func identifies one of the six elementary functions.
type Func int

const (
	FuncExp Func = iota
	FuncExp2
	FuncExp10
	FuncLog
	FuncLog2
	FuncLog10

	// NumFuncs is the number of functions.
	NumFuncs = 6
)

// Funcs lists the six functions in the paper's order.
var Funcs = [NumFuncs]Func{FuncExp, FuncExp2, FuncExp10, FuncLog, FuncLog2, FuncLog10}

var funcNames = [NumFuncs]string{"exp", "exp2", "exp10", "log", "log2", "log10"}

// String returns the function's name ("exp", "log2", ...).
func (f Func) String() string {
	if f.valid() {
		return funcNames[f]
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

func (f Func) valid() bool { return f >= FuncExp && f < NumFuncs }

// ParseFunc resolves a function name ("exp", "exp2", "exp10", "log", "log2",
// "log10"), case-insensitively.
func ParseFunc(name string) (Func, error) {
	lower := strings.ToLower(name)
	for i, n := range funcNames {
		if n == lower {
			return Func(i), nil
		}
	}
	return 0, errUnknownFunc(name)
}

// kernels indexes the straight-line generated backend by (function, scheme,
// precision). Resolving a kernel once and looping over it is the batch fast
// path; the scalar entry points go through the same kernels so batch and
// scalar results are bit-identical by construction. Precision index 0 is the
// full float32 kernel; narrower precisions hold the progressive prefix
// kernels.
var kernels [NumFuncs][NumSchemes][NumPrecisions]func(float64) float64

// batchKernels adds the backend dimension: blocked in-place kernels with the
// polynomial body inlined into the loop, the form EvalBatch dispatches to.
// The leading index is a concrete backend (BackendGo, BackendVector,
// BackendAsm) — BackendAuto resolves to one of those before indexing, so its
// slot stays nil. Every backend of a cell computes bit-identical results;
// they differ only in how the loop is shaped (scalar block, lane-group
// vector block, or vector block behind assembly-staged float conversions).
//
// The scalar kernels have no backend dimension: a single straight-line
// float64 call has only one generated form.
var batchKernels [NumBackends][NumFuncs][NumSchemes][NumPrecisions]func(dst, src []float32)

func init() {
	batchRegs := [NumBackends]struct {
		full, prefix map[string]func(dst, src []float32)
	}{
		BackendGo:     {libm.GeneratedBatchFuncs, libm.GeneratedPrefixBatchFuncs},
		BackendVector: {libm.GeneratedVecBatchFuncs, libm.GeneratedPrefixVecBatchFuncs},
		BackendAsm:    {libm.GeneratedAsmBatchFuncs, libm.GeneratedPrefixAsmBatchFuncs},
	}
	for fi, f := range Funcs {
		for si, s := range Schemes {
			key := f.String() + "/" + s.String()
			for pi, p := range Precisions {
				k := libm.GeneratedFuncs[key]
				lookup := key
				if p != PrecFloat32 {
					lookup = key + "/" + p.String()
					k = libm.GeneratedPrefixFuncs[lookup]
				}
				if k == nil {
					panic("rlibm: missing generated kernel " + lookup)
				}
				kernels[fi][si][pi] = k
				// The bfloat16 memo table answers any bf16-pattern input with
				// one load, which beats every polynomial backend; share it
				// across all of them so backend choice never changes bf16
				// speed or results.
				var memo func(dst, src []float32)
				if p == PrecBfloat16 {
					memo = bf16Batch(f.String(), k)
				}
				for bi, reg := range batchRegs {
					if Backend(bi) == BackendAuto {
						continue
					}
					m := reg.full
					if p != PrecFloat32 {
						m = reg.prefix
					}
					bk := m[lookup]
					if bk == nil {
						panic("rlibm: missing " + Backend(bi).String() + " batch kernel " + lookup)
					}
					if memo != nil {
						bk = memo
					}
					batchKernels[bi][fi][si][pi] = bk
				}
			}
		}
	}
}

// bf16Batch is the bfloat16 batch kernel with the memo-table fast path: an
// input that is a bfloat16 value (any float32 whose low 16 bits are zero —
// the whole 2^16 space, specials included) is answered with one load from a
// per-function result table; anything else runs the prefix kernel. The
// table is built lazily from the same prefix kernel, so both branches are
// bit-identical to scalar evaluation by construction, and it is shared
// across schemes because every scheme's prefix computes the identical
// correctly rounded bfloat16 result.
func bf16Batch(fname string, kern func(float64) float64) func(dst, src []float32) {
	var once sync.Once
	var tab *[1 << 16]uint32
	return func(dst, src []float32) {
		once.Do(func() {
			if tab = libm.Bf16Table(fname); tab == nil {
				panic("rlibm: no bf16 prefix kernel for " + fname)
			}
		})
		for i, x := range src {
			if b := math.Float32bits(x); b&0xFFFF == 0 {
				dst[i] = math.Float32frombits(tab[b>>16])
			} else {
				dst[i] = float32(kern(float64(x)))
			}
		}
	}
}

// Eval returns the correctly rounded float32 result of function f at x using
// scheme s, at full precision. It panics if f or s is out of range; use
// ParseFunc/ParseScheme to validate external input first, or New, which
// returns errors instead. For narrow output precisions build an Evaluator
// with WithPrecision.
func Eval(f Func, s Scheme, x float32) float32 {
	if !f.valid() {
		panic("rlibm: invalid Func")
	}
	if !s.valid() {
		panic("rlibm: invalid Scheme")
	}
	return float32(kernels[f][s][PrecFloat32](float64(x)))
}

// Exp returns the correctly rounded e^x (Estrin+FMA variant).
func Exp(x float32) float32 { return float32(kernels[FuncExp][EstrinFMA][PrecFloat32](float64(x))) }

// Exp2 returns the correctly rounded 2^x (Estrin+FMA variant).
func Exp2(x float32) float32 { return float32(kernels[FuncExp2][EstrinFMA][PrecFloat32](float64(x))) }

// Exp10 returns the correctly rounded 10^x (Estrin+FMA variant).
func Exp10(x float32) float32 {
	return float32(kernels[FuncExp10][EstrinFMA][PrecFloat32](float64(x)))
}

// Log returns the correctly rounded natural logarithm (Estrin+FMA variant).
func Log(x float32) float32 { return float32(kernels[FuncLog][EstrinFMA][PrecFloat32](float64(x))) }

// Log2 returns the correctly rounded base-2 logarithm (Estrin+FMA variant).
func Log2(x float32) float32 { return float32(kernels[FuncLog2][EstrinFMA][PrecFloat32](float64(x))) }

// Log10 returns the correctly rounded base-10 logarithm (Estrin+FMA variant).
func Log10(x float32) float32 {
	return float32(kernels[FuncLog10][EstrinFMA][PrecFloat32](float64(x)))
}
