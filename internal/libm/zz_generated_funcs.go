// Code generated by rlibm-gen. DO NOT EDIT.
//
// Straight-line function backend emitted from the embedded generation
// data; see Emit.

package libm

import (
	"math"

	"rlibm/internal/rangered"
)

var _ = math.FMA // not every generated body uses the fused ops

// GeneratedFuncs indexes the straight-line backend by "func/scheme".
var GeneratedFuncs = map[string]func(float64) float64{
	"exp/rlibm":              genExpRlibm,
	"exp/rlibm-estrin":       genExpRlibmEstrin,
	"exp/rlibm-estrin-fma":   genExpRlibmEstrinFma,
	"exp/rlibm-knuth":        genExpRlibmKnuth,
	"exp10/rlibm":            genExp10Rlibm,
	"exp10/rlibm-estrin":     genExp10RlibmEstrin,
	"exp10/rlibm-estrin-fma": genExp10RlibmEstrinFma,
	"exp10/rlibm-knuth":      genExp10RlibmKnuth,
	"exp2/rlibm":             genExp2Rlibm,
	"exp2/rlibm-estrin":      genExp2RlibmEstrin,
	"exp2/rlibm-estrin-fma":  genExp2RlibmEstrinFma,
	"exp2/rlibm-knuth":       genExp2RlibmKnuth,
	"log/rlibm":              genLogRlibm,
	"log/rlibm-estrin":       genLogRlibmEstrin,
	"log/rlibm-estrin-fma":   genLogRlibmEstrinFma,
	"log/rlibm-knuth":        genLogRlibmKnuth,
	"log10/rlibm":            genLog10Rlibm,
	"log10/rlibm-estrin":     genLog10RlibmEstrin,
	"log10/rlibm-estrin-fma": genLog10RlibmEstrinFma,
	"log10/rlibm-knuth":      genLog10RlibmKnuth,
	"log2/rlibm":             genLog2Rlibm,
	"log2/rlibm-estrin":      genLog2RlibmEstrin,
	"log2/rlibm-estrin-fma":  genLog2RlibmEstrinFma,
	"log2/rlibm-knuth":       genLog2RlibmKnuth,
}

// GeneratedBlockFuncs indexes the in-place block backend by "func/scheme".
// Each kernel runs the same operation sequence as its GeneratedFuncs
// counterpart on every element, so outputs are bit-identical, but the body
// is inlined into the loop: no per-element call, and the float32 widening
// moves out of the kernel's dependency chain (see pkg/rlibm).
var GeneratedBlockFuncs = map[string]func([]float64){
	"exp/rlibm":              genExpRlibmBlock,
	"exp/rlibm-estrin":       genExpRlibmEstrinBlock,
	"exp/rlibm-estrin-fma":   genExpRlibmEstrinFmaBlock,
	"exp/rlibm-knuth":        genExpRlibmKnuthBlock,
	"exp10/rlibm":            genExp10RlibmBlock,
	"exp10/rlibm-estrin":     genExp10RlibmEstrinBlock,
	"exp10/rlibm-estrin-fma": genExp10RlibmEstrinFmaBlock,
	"exp10/rlibm-knuth":      genExp10RlibmKnuthBlock,
	"exp2/rlibm":             genExp2RlibmBlock,
	"exp2/rlibm-estrin":      genExp2RlibmEstrinBlock,
	"exp2/rlibm-estrin-fma":  genExp2RlibmEstrinFmaBlock,
	"exp2/rlibm-knuth":       genExp2RlibmKnuthBlock,
	"log/rlibm":              genLogRlibmBlock,
	"log/rlibm-estrin":       genLogRlibmEstrinBlock,
	"log/rlibm-estrin-fma":   genLogRlibmEstrinFmaBlock,
	"log/rlibm-knuth":        genLogRlibmKnuthBlock,
	"log10/rlibm":            genLog10RlibmBlock,
	"log10/rlibm-estrin":     genLog10RlibmEstrinBlock,
	"log10/rlibm-estrin-fma": genLog10RlibmEstrinFmaBlock,
	"log10/rlibm-knuth":      genLog10RlibmKnuthBlock,
	"log2/rlibm":             genLog2RlibmBlock,
	"log2/rlibm-estrin":      genLog2RlibmEstrinBlock,
	"log2/rlibm-estrin-fma":  genLog2RlibmEstrinFmaBlock,
	"log2/rlibm-knuth":       genLog2RlibmKnuthBlock,
}

// GeneratedBatchFuncs indexes the float32 batch backend by "func/scheme".
// Each batch kernel streams src through its block kernel one stack-resident
// 256-element float64 block at a time (widen, evaluate in place, narrow) and
// performs no heap allocation. dst must be at least as long as src; extra
// elements are left untouched. Results are bit-identical to the scalar
// kernel: dst[i] == float32(GeneratedFuncs[key](float64(src[i]))).
var GeneratedBatchFuncs = map[string]func(dst, src []float32){
	"exp/rlibm":              genExpRlibmBatch,
	"exp/rlibm-estrin":       genExpRlibmEstrinBatch,
	"exp/rlibm-estrin-fma":   genExpRlibmEstrinFmaBatch,
	"exp/rlibm-knuth":        genExpRlibmKnuthBatch,
	"exp10/rlibm":            genExp10RlibmBatch,
	"exp10/rlibm-estrin":     genExp10RlibmEstrinBatch,
	"exp10/rlibm-estrin-fma": genExp10RlibmEstrinFmaBatch,
	"exp10/rlibm-knuth":      genExp10RlibmKnuthBatch,
	"exp2/rlibm":             genExp2RlibmBatch,
	"exp2/rlibm-estrin":      genExp2RlibmEstrinBatch,
	"exp2/rlibm-estrin-fma":  genExp2RlibmEstrinFmaBatch,
	"exp2/rlibm-knuth":       genExp2RlibmKnuthBatch,
	"log/rlibm":              genLogRlibmBatch,
	"log/rlibm-estrin":       genLogRlibmEstrinBatch,
	"log/rlibm-estrin-fma":   genLogRlibmEstrinFmaBatch,
	"log/rlibm-knuth":        genLogRlibmKnuthBatch,
	"log10/rlibm":            genLog10RlibmBatch,
	"log10/rlibm-estrin":     genLog10RlibmEstrinBatch,
	"log10/rlibm-estrin-fma": genLog10RlibmEstrinFmaBatch,
	"log10/rlibm-knuth":      genLog10RlibmKnuthBatch,
	"log2/rlibm":             genLog2RlibmBatch,
	"log2/rlibm-estrin":      genLog2RlibmEstrinBatch,
	"log2/rlibm-estrin-fma":  genLog2RlibmEstrinFmaBatch,
	"log2/rlibm-knuth":       genLog2RlibmKnuthBatch,
}

// GeneratedVecBlockFuncs indexes the vectorizable block backend by
// "func/scheme": 8-lane groups with struct-of-arrays range reduction and
// a branch-free polynomial loop (bit-select masks replace the special
// switch, piece dispatch and r == 0 branch). Groups containing any special
// input, and tails, run the scalar-body block kernel, so every entry is
// bit-identical to its GeneratedBlockFuncs counterpart on every input.
var GeneratedVecBlockFuncs = map[string]func([]float64){
	"exp/rlibm":              genExpRlibmVecBlock,
	"exp/rlibm-estrin":       genExpRlibmEstrinVecBlock,
	"exp/rlibm-estrin-fma":   genExpRlibmEstrinFmaVecBlock,
	"exp/rlibm-knuth":        genExpRlibmKnuthVecBlock,
	"exp10/rlibm":            genExp10RlibmVecBlock,
	"exp10/rlibm-estrin":     genExp10RlibmEstrinVecBlock,
	"exp10/rlibm-estrin-fma": genExp10RlibmEstrinFmaVecBlock,
	"exp10/rlibm-knuth":      genExp10RlibmKnuthVecBlock,
	"exp2/rlibm":             genExp2RlibmVecBlock,
	"exp2/rlibm-estrin":      genExp2RlibmEstrinVecBlock,
	"exp2/rlibm-estrin-fma":  genExp2RlibmEstrinFmaVecBlock,
	"exp2/rlibm-knuth":       genExp2RlibmKnuthVecBlock,
	"log/rlibm":              genLogRlibmVecBlock,
	"log/rlibm-estrin":       genLogRlibmEstrinVecBlock,
	"log/rlibm-estrin-fma":   genLogRlibmEstrinFmaVecBlock,
	"log/rlibm-knuth":        genLogRlibmKnuthVecBlock,
	"log10/rlibm":            genLog10RlibmVecBlock,
	"log10/rlibm-estrin":     genLog10RlibmEstrinVecBlock,
	"log10/rlibm-estrin-fma": genLog10RlibmEstrinFmaVecBlock,
	"log10/rlibm-knuth":      genLog10RlibmKnuthVecBlock,
	"log2/rlibm":             genLog2RlibmVecBlock,
	"log2/rlibm-estrin":      genLog2RlibmEstrinVecBlock,
	"log2/rlibm-estrin-fma":  genLog2RlibmEstrinFmaVecBlock,
	"log2/rlibm-knuth":       genLog2RlibmKnuthVecBlock,
}

// GeneratedVecBatchFuncs indexes the float32 batch form of the vector
// block kernels by "func/scheme", with the GeneratedBatchFuncs contract
// and bit-identical results.
var GeneratedVecBatchFuncs = map[string]func(dst, src []float32){
	"exp/rlibm":              genExpRlibmVecBatch,
	"exp/rlibm-estrin":       genExpRlibmEstrinVecBatch,
	"exp/rlibm-estrin-fma":   genExpRlibmEstrinFmaVecBatch,
	"exp/rlibm-knuth":        genExpRlibmKnuthVecBatch,
	"exp10/rlibm":            genExp10RlibmVecBatch,
	"exp10/rlibm-estrin":     genExp10RlibmEstrinVecBatch,
	"exp10/rlibm-estrin-fma": genExp10RlibmEstrinFmaVecBatch,
	"exp10/rlibm-knuth":      genExp10RlibmKnuthVecBatch,
	"exp2/rlibm":             genExp2RlibmVecBatch,
	"exp2/rlibm-estrin":      genExp2RlibmEstrinVecBatch,
	"exp2/rlibm-estrin-fma":  genExp2RlibmEstrinFmaVecBatch,
	"exp2/rlibm-knuth":       genExp2RlibmKnuthVecBatch,
	"log/rlibm":              genLogRlibmVecBatch,
	"log/rlibm-estrin":       genLogRlibmEstrinVecBatch,
	"log/rlibm-estrin-fma":   genLogRlibmEstrinFmaVecBatch,
	"log/rlibm-knuth":        genLogRlibmKnuthVecBatch,
	"log10/rlibm":            genLog10RlibmVecBatch,
	"log10/rlibm-estrin":     genLog10RlibmEstrinVecBatch,
	"log10/rlibm-estrin-fma": genLog10RlibmEstrinFmaVecBatch,
	"log10/rlibm-knuth":      genLog10RlibmKnuthVecBatch,
	"log2/rlibm":             genLog2RlibmVecBatch,
	"log2/rlibm-estrin":      genLog2RlibmEstrinVecBatch,
	"log2/rlibm-estrin-fma":  genLog2RlibmEstrinFmaVecBatch,
	"log2/rlibm-knuth":       genLog2RlibmKnuthVecBatch,
}

// GeneratedAsmBatchFuncs indexes the assembly-staged batch form by
// "func/scheme": the vector block kernels with the float32 widen/narrow
// staging run as SIMD conversion instructions when AsmConvAvailable, plain
// Go loops otherwise. Both conversions are exact/RNE, so results remain
// bit-identical to the scalar kernel either way.
var GeneratedAsmBatchFuncs = map[string]func(dst, src []float32){
	"exp/rlibm":              genExpRlibmAsmBatch,
	"exp/rlibm-estrin":       genExpRlibmEstrinAsmBatch,
	"exp/rlibm-estrin-fma":   genExpRlibmEstrinFmaAsmBatch,
	"exp/rlibm-knuth":        genExpRlibmKnuthAsmBatch,
	"exp10/rlibm":            genExp10RlibmAsmBatch,
	"exp10/rlibm-estrin":     genExp10RlibmEstrinAsmBatch,
	"exp10/rlibm-estrin-fma": genExp10RlibmEstrinFmaAsmBatch,
	"exp10/rlibm-knuth":      genExp10RlibmKnuthAsmBatch,
	"exp2/rlibm":             genExp2RlibmAsmBatch,
	"exp2/rlibm-estrin":      genExp2RlibmEstrinAsmBatch,
	"exp2/rlibm-estrin-fma":  genExp2RlibmEstrinFmaAsmBatch,
	"exp2/rlibm-knuth":       genExp2RlibmKnuthAsmBatch,
	"log/rlibm":              genLogRlibmAsmBatch,
	"log/rlibm-estrin":       genLogRlibmEstrinAsmBatch,
	"log/rlibm-estrin-fma":   genLogRlibmEstrinFmaAsmBatch,
	"log/rlibm-knuth":        genLogRlibmKnuthAsmBatch,
	"log10/rlibm":            genLog10RlibmAsmBatch,
	"log10/rlibm-estrin":     genLog10RlibmEstrinAsmBatch,
	"log10/rlibm-estrin-fma": genLog10RlibmEstrinFmaAsmBatch,
	"log10/rlibm-knuth":      genLog10RlibmKnuthAsmBatch,
	"log2/rlibm":             genLog2RlibmAsmBatch,
	"log2/rlibm-estrin":      genLog2RlibmEstrinAsmBatch,
	"log2/rlibm-estrin-fma":  genLog2RlibmEstrinFmaAsmBatch,
	"log2/rlibm-knuth":       genLog2RlibmKnuthAsmBatch,
}

// generatedBatchBlock is the element count of the batch kernels' on-stack
// conversion block.
const generatedBatchBlock = 256

// generatedVecLanes is the lane-group width of the vector block kernels;
// generatedBatchBlock is a multiple, so batch staging blocks split into
// whole groups.
const generatedVecLanes = 8

// genExpRlibm is the generated exp implementation with rlibm evaluation.
func genExpRlibm(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.9fe3682cd3be5p+06:
		return 0x1p-151
	case x >= 0x1.62e42feda39fp+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.0000004000001p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.ffffff000000ap-25:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	if r < -0x1.75p-25 {
		t2_0 := 0x1.c6e2ebdc29af5p-02 * r
		t2_1 := t2_0 + 0x1.5d4f393d94cbfp-03
		t2_2 := t2_1 * r
		t2_3 := t2_2 + 0x1.00017718e0309p-01
		t2_4 := t2_3 * r
		t2_5 := t2_4 + 0x1.00000024f8152p+00
		t2_6 := t2_5 * r
		t2_7 := t2_6 + 0x1.00000000001f6p+00
		p = t2_7
	} else {
		t2_0 := -0x1.0c18e23214f42p-02 * r
		t2_1 := t2_0 + 0x1.5af27cac0a65ep-03
		t2_2 := t2_1 * r
		t2_3 := t2_2 + 0x1.fffdfd0bc8f5bp-02
		t2_4 := t2_3 * r
		t2_5 := t2_4 + 0x1.0000001c24d75p+00
		t2_6 := t2_5 * r
		t2_7 := t2_6 + 0x1.0000000000008p+00
		p = t2_7
	}
	return rangered.CompensateExpFamily(p, k)
}

// genExpRlibmBlock applies the exp rlibm kernel to every element of b in place.
func genExpRlibmBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.9fe3682cd3be5p+06:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.62e42feda39fp+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.0000004000001p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.ffffff000000ap-25:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		if r < -0x1.75p-25 {
			t3_0 := 0x1.c6e2ebdc29af5p-02 * r
			t3_1 := t3_0 + 0x1.5d4f393d94cbfp-03
			t3_2 := t3_1 * r
			t3_3 := t3_2 + 0x1.00017718e0309p-01
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.00000024f8152p+00
			t3_6 := t3_5 * r
			t3_7 := t3_6 + 0x1.00000000001f6p+00
			p = t3_7
		} else {
			t3_0 := -0x1.0c18e23214f42p-02 * r
			t3_1 := t3_0 + 0x1.5af27cac0a65ep-03
			t3_2 := t3_1 * r
			t3_3 := t3_2 + 0x1.fffdfd0bc8f5bp-02
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.0000001c24d75p+00
			t3_6 := t3_5 * r
			t3_7 := t3_6 + 0x1.0000000000008p+00
			p = t3_7
		}
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExpRlibmBatch evaluates the exp rlibm kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExpRlibmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmVecTab holds the per-piece coefficient rows of genExpRlibmVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genExpRlibmVecTab = [2][5]float64{
	{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02},
	{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02},
}

// genExpRlibmVecBlock applies the same kernel as genExpRlibmBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExpRlibmBlock for every
// input and length.
func genExpRlibmVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLn2x64)
			r := (x - n*rangered.Ln2x64Hi) - n*rangered.Ln2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.9fe3682cd3be5p+06 && x < 0x1.62e42feda39fp+06 && (x < -0x1.0000004000001p-25 || x > 0x1.ffffff000000ap-25)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(-0x1.75p-25)) >> 63) ^ 1
			c := &genExpRlibmVecTab[sel]
			tv_0 := c[4] * r
			tv_1 := tv_0 + c[3]
			tv_2 := tv_1 * r
			tv_3 := tv_2 + c[2]
			tv_4 := tv_3 * r
			tv_5 := tv_4 + c[1]
			tv_6 := tv_5 * r
			tv_7 := tv_6 + c[0]
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_7)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExpRlibm(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExpRlibmBlock(b[n:])
	}
}

// genExpRlibmVecBatch is genExpRlibmBatch over the vector block kernel.
func genExpRlibmVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmAsmBatch is genExpRlibmVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExpRlibmAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExpRlibmVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExpRlibmKnuth is the generated exp implementation with rlibm-knuth evaluation.
func genExpRlibmKnuth(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.9fe3682cd3be5p+06:
		return 0x1p-151
	case x >= 0x1.62e42feda39fp+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.0000004000001p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.ffffff000000ap-25:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	if r < -0x1.75p-25 {
		t2_0 := r + -0x1.3b6a96fe7f9f6p-02
		t2_1 := t2_0 * r
		t2_2 := t2_1 + 0x1.54ec9d7286d5p+01
		t2_3 := t2_2 + r
		t2_4 := t2_3 + -0x1.fe7ddb1fc3536p+01
		t2_5 := t2_4 * t2_2
		t2_6 := t2_5 + 0x1.71e3d5c56a5eep+02
		t2_7 := t2_6 * 0x1.c6e2ebdc29af5p-02
		p = t2_7
	} else {
		t2_0 := r + -0x1.a5a563cabf447p-01
		t2_1 := t2_0 * r
		t2_2 := t2_1 + -0x1.517145d507ef6p+02
		t2_3 := t2_2 + r
		t2_4 := t2_3 + 0x1.18fb57a177d6ap+03
		t2_5 := t2_4 * t2_2
		t2_6 := t2_5 + 0x1.d5ac825ac4991p+03
		t2_7 := t2_6 * -0x1.0c18e23214f42p-02
		p = t2_7
	}
	return rangered.CompensateExpFamily(p, k)
}

// genExpRlibmKnuthBlock applies the exp rlibm-knuth kernel to every element of b in place.
func genExpRlibmKnuthBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.9fe3682cd3be5p+06:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.62e42feda39fp+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.0000004000001p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.ffffff000000ap-25:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		if r < -0x1.75p-25 {
			t3_0 := r + -0x1.3b6a96fe7f9f6p-02
			t3_1 := t3_0 * r
			t3_2 := t3_1 + 0x1.54ec9d7286d5p+01
			t3_3 := t3_2 + r
			t3_4 := t3_3 + -0x1.fe7ddb1fc3536p+01
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + 0x1.71e3d5c56a5eep+02
			t3_7 := t3_6 * 0x1.c6e2ebdc29af5p-02
			p = t3_7
		} else {
			t3_0 := r + -0x1.a5a563cabf447p-01
			t3_1 := t3_0 * r
			t3_2 := t3_1 + -0x1.517145d507ef6p+02
			t3_3 := t3_2 + r
			t3_4 := t3_3 + 0x1.18fb57a177d6ap+03
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + 0x1.d5ac825ac4991p+03
			t3_7 := t3_6 * -0x1.0c18e23214f42p-02
			p = t3_7
		}
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExpRlibmKnuthBatch evaluates the exp rlibm-knuth kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExpRlibmKnuthBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmKnuthBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmKnuthVecTab holds the per-piece coefficient rows of genExpRlibmKnuthVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genExpRlibmKnuthVecTab = [2][5]float64{
	{-0x1.3b6a96fe7f9f6p-02, 0x1.54ec9d7286d5p+01, -0x1.fe7ddb1fc3536p+01, 0x1.71e3d5c56a5eep+02, 0x1.c6e2ebdc29af5p-02},
	{-0x1.a5a563cabf447p-01, -0x1.517145d507ef6p+02, 0x1.18fb57a177d6ap+03, 0x1.d5ac825ac4991p+03, -0x1.0c18e23214f42p-02},
}

// genExpRlibmKnuthVecBlock applies the same kernel as genExpRlibmKnuthBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExpRlibmKnuthBlock for every
// input and length.
func genExpRlibmKnuthVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLn2x64)
			r := (x - n*rangered.Ln2x64Hi) - n*rangered.Ln2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.9fe3682cd3be5p+06 && x < 0x1.62e42feda39fp+06 && (x < -0x1.0000004000001p-25 || x > 0x1.ffffff000000ap-25)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(-0x1.75p-25)) >> 63) ^ 1
			c := &genExpRlibmKnuthVecTab[sel]
			tv_0 := r + c[0]
			tv_1 := tv_0 * r
			tv_2 := tv_1 + c[1]
			tv_3 := tv_2 + r
			tv_4 := tv_3 + c[2]
			tv_5 := tv_4 * tv_2
			tv_6 := tv_5 + c[3]
			tv_7 := tv_6 * c[4]
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_7)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExpRlibmKnuth(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExpRlibmKnuthBlock(b[n:])
	}
}

// genExpRlibmKnuthVecBatch is genExpRlibmKnuthBatch over the vector block kernel.
func genExpRlibmKnuthVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmKnuthAsmBatch is genExpRlibmKnuthVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExpRlibmKnuthAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExpRlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExpRlibmEstrin is the generated exp implementation with rlibm-estrin evaluation.
func genExpRlibmEstrin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.9fe3682cd3be5p+06:
		return 0x1p-151
	case x >= 0x1.62e42feda39fp+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.0000004000001p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.ffffff000000ap-25:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	if r < -0x1.75p-25 {
		t2_0 := 0x1.00000024f8152p+00 * r
		t2_1 := 0x1.00000000001f6p+00 + t2_0
		t2_2 := 0x1.5d4f393d94cbfp-03 * r
		t2_3 := 0x1.00017718e0309p-01 + t2_2
		t2_4 := r * r
		t2_5 := t2_3 * t2_4
		t2_6 := t2_1 + t2_5
		t2_7 := t2_4 * t2_4
		t2_8 := 0x1.c6e2ebdc29af5p-02 * t2_7
		t2_9 := t2_6 + t2_8
		p = t2_9
	} else {
		t2_0 := 0x1.0000001c24d75p+00 * r
		t2_1 := 0x1.0000000000008p+00 + t2_0
		t2_2 := 0x1.5af27cac0a65ep-03 * r
		t2_3 := 0x1.fffdfd0bc8f5bp-02 + t2_2
		t2_4 := r * r
		t2_5 := t2_3 * t2_4
		t2_6 := t2_1 + t2_5
		t2_7 := t2_4 * t2_4
		t2_8 := -0x1.0c18e23214f42p-02 * t2_7
		t2_9 := t2_6 + t2_8
		p = t2_9
	}
	return rangered.CompensateExpFamily(p, k)
}

// genExpRlibmEstrinBlock applies the exp rlibm-estrin kernel to every element of b in place.
func genExpRlibmEstrinBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.9fe3682cd3be5p+06:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.62e42feda39fp+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.0000004000001p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.ffffff000000ap-25:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		if r < -0x1.75p-25 {
			t3_0 := 0x1.00000024f8152p+00 * r
			t3_1 := 0x1.00000000001f6p+00 + t3_0
			t3_2 := 0x1.5d4f393d94cbfp-03 * r
			t3_3 := 0x1.00017718e0309p-01 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := 0x1.c6e2ebdc29af5p-02 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		} else {
			t3_0 := 0x1.0000001c24d75p+00 * r
			t3_1 := 0x1.0000000000008p+00 + t3_0
			t3_2 := 0x1.5af27cac0a65ep-03 * r
			t3_3 := 0x1.fffdfd0bc8f5bp-02 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := -0x1.0c18e23214f42p-02 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		}
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExpRlibmEstrinBatch evaluates the exp rlibm-estrin kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExpRlibmEstrinBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmEstrinBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmEstrinVecTab holds the per-piece coefficient rows of genExpRlibmEstrinVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genExpRlibmEstrinVecTab = [2][5]float64{
	{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02},
	{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02},
}

// genExpRlibmEstrinVecBlock applies the same kernel as genExpRlibmEstrinBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExpRlibmEstrinBlock for every
// input and length.
func genExpRlibmEstrinVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLn2x64)
			r := (x - n*rangered.Ln2x64Hi) - n*rangered.Ln2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.9fe3682cd3be5p+06 && x < 0x1.62e42feda39fp+06 && (x < -0x1.0000004000001p-25 || x > 0x1.ffffff000000ap-25)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(-0x1.75p-25)) >> 63) ^ 1
			c := &genExpRlibmEstrinVecTab[sel]
			tv_0 := c[1] * r
			tv_1 := c[0] + tv_0
			tv_2 := c[3] * r
			tv_3 := c[2] + tv_2
			tv_4 := r * r
			tv_5 := tv_3 * tv_4
			tv_6 := tv_1 + tv_5
			tv_7 := tv_4 * tv_4
			tv_8 := c[4] * tv_7
			tv_9 := tv_6 + tv_8
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_9)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExpRlibmEstrin(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExpRlibmEstrinBlock(b[n:])
	}
}

// genExpRlibmEstrinVecBatch is genExpRlibmEstrinBatch over the vector block kernel.
func genExpRlibmEstrinVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmEstrinAsmBatch is genExpRlibmEstrinVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExpRlibmEstrinAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExpRlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExpRlibmEstrinFma is the generated exp implementation with rlibm-estrin-fma evaluation.
func genExpRlibmEstrinFma(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.9fe3682cd3be5p+06:
		return 0x1p-151
	case x >= 0x1.62e42feda39fp+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.0000004000001p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.ffffff000000ap-25:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	if r < -0x1.75p-25 {
		t2_0 := math.FMA(0x1.00000024f8152p+00, r, 0x1.00000000001f6p+00)
		t2_1 := math.FMA(0x1.5d4f393d94cbfp-03, r, 0x1.00017718e0309p-01)
		t2_2 := r * r
		t2_3 := math.FMA(t2_1, t2_2, t2_0)
		t2_4 := t2_2 * t2_2
		t2_5 := math.FMA(0x1.c6e2ebdc29af5p-02, t2_4, t2_3)
		p = t2_5
	} else {
		t2_0 := math.FMA(0x1.0000001c24d75p+00, r, 0x1.0000000000008p+00)
		t2_1 := math.FMA(0x1.5af27cac0a65ep-03, r, 0x1.fffdfd0bc8f5bp-02)
		t2_2 := r * r
		t2_3 := math.FMA(t2_1, t2_2, t2_0)
		t2_4 := t2_2 * t2_2
		t2_5 := math.FMA(-0x1.0c18e23214f42p-02, t2_4, t2_3)
		p = t2_5
	}
	return rangered.CompensateExpFamily(p, k)
}

// genExpRlibmEstrinFmaBlock applies the exp rlibm-estrin-fma kernel to every element of b in place.
func genExpRlibmEstrinFmaBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.9fe3682cd3be5p+06:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.62e42feda39fp+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.0000004000001p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.ffffff000000ap-25:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		if r < -0x1.75p-25 {
			t3_0 := math.FMA(0x1.00000024f8152p+00, r, 0x1.00000000001f6p+00)
			t3_1 := math.FMA(0x1.5d4f393d94cbfp-03, r, 0x1.00017718e0309p-01)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(0x1.c6e2ebdc29af5p-02, t3_4, t3_3)
			p = t3_5
		} else {
			t3_0 := math.FMA(0x1.0000001c24d75p+00, r, 0x1.0000000000008p+00)
			t3_1 := math.FMA(0x1.5af27cac0a65ep-03, r, 0x1.fffdfd0bc8f5bp-02)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(-0x1.0c18e23214f42p-02, t3_4, t3_3)
			p = t3_5
		}
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExpRlibmEstrinFmaBatch evaluates the exp rlibm-estrin-fma kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExpRlibmEstrinFmaBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmEstrinFmaBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmEstrinFmaVecTab holds the per-piece coefficient rows of genExpRlibmEstrinFmaVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genExpRlibmEstrinFmaVecTab = [2][5]float64{
	{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02},
	{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02},
}

// genExpRlibmEstrinFmaVecBlock applies the same kernel as genExpRlibmEstrinFmaBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExpRlibmEstrinFmaBlock for every
// input and length.
func genExpRlibmEstrinFmaVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLn2x64)
			r := (x - n*rangered.Ln2x64Hi) - n*rangered.Ln2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.9fe3682cd3be5p+06 && x < 0x1.62e42feda39fp+06 && (x < -0x1.0000004000001p-25 || x > 0x1.ffffff000000ap-25)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(-0x1.75p-25)) >> 63) ^ 1
			c := &genExpRlibmEstrinFmaVecTab[sel]
			tv_0 := math.FMA(c[1], r, c[0])
			tv_1 := math.FMA(c[3], r, c[2])
			tv_2 := r * r
			tv_3 := math.FMA(tv_1, tv_2, tv_0)
			tv_4 := tv_2 * tv_2
			tv_5 := math.FMA(c[4], tv_4, tv_3)
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_5)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExpRlibmEstrinFma(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExpRlibmEstrinFmaBlock(b[n:])
	}
}

// genExpRlibmEstrinFmaVecBatch is genExpRlibmEstrinFmaBatch over the vector block kernel.
func genExpRlibmEstrinFmaVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExpRlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExpRlibmEstrinFmaAsmBatch is genExpRlibmEstrinFmaVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExpRlibmEstrinFmaAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExpRlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp2Rlibm is the generated exp2 implementation with rlibm evaluation.
func genExp2Rlibm(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.2c00000000001p+07:
		return 0x1p-151
	case x >= 0x1.fffffffd1d572p+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.715476af0d4d9p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.7154759a0df53p-24:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp2(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := 0x1.b235e2092600bp-02 * r
	t1_1 := t1_0 + 0x1.705654f4995e7p-09
	t1_2 := t1_1 * r
	t1_3 := t1_2 + 0x1.c66eb4d6be7f8p-05
	t1_4 := t1_3 * r
	t1_5 := t1_4 + 0x1.ebfbfeaabd07bp-03
	t1_6 := t1_5 * r
	t1_7 := t1_6 + 0x1.62e42ff2c0c5cp-01
	t1_8 := t1_7 * r
	t1_9 := t1_8 + 0x1.0000000000004p+00
	p = t1_9
	return rangered.CompensateExpFamily(p, k)
}

// genExp2RlibmBlock applies the exp2 rlibm kernel to every element of b in place.
func genExp2RlibmBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.2c00000000001p+07:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.fffffffd1d572p+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.715476af0d4d9p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.7154759a0df53p-24:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp2(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := 0x1.b235e2092600bp-02 * r
		t2_1 := t2_0 + 0x1.705654f4995e7p-09
		t2_2 := t2_1 * r
		t2_3 := t2_2 + 0x1.c66eb4d6be7f8p-05
		t2_4 := t2_3 * r
		t2_5 := t2_4 + 0x1.ebfbfeaabd07bp-03
		t2_6 := t2_5 * r
		t2_7 := t2_6 + 0x1.62e42ff2c0c5cp-01
		t2_8 := t2_7 * r
		t2_9 := t2_8 + 0x1.0000000000004p+00
		p = t2_9
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp2RlibmBatch evaluates the exp2 rlibm kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp2RlibmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmVecBlock applies the same kernel as genExp2RlibmBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp2RlibmBlock for every
// input and length.
func genExp2RlibmVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * 64)
			r := x - n/64
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.2c00000000001p+07 && x < 0x1.fffffffd1d572p+06 && (x < -0x1.715476af0d4d9p-25 || x > 0x1.7154759a0df53p-24)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := 0x1.b235e2092600bp-02 * r
			tv_1 := tv_0 + 0x1.705654f4995e7p-09
			tv_2 := tv_1 * r
			tv_3 := tv_2 + 0x1.c66eb4d6be7f8p-05
			tv_4 := tv_3 * r
			tv_5 := tv_4 + 0x1.ebfbfeaabd07bp-03
			tv_6 := tv_5 * r
			tv_7 := tv_6 + 0x1.62e42ff2c0c5cp-01
			tv_8 := tv_7 * r
			tv_9 := tv_8 + 0x1.0000000000004p+00
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_9)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp2Rlibm(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp2RlibmBlock(b[n:])
	}
}

// genExp2RlibmVecBatch is genExp2RlibmBatch over the vector block kernel.
func genExp2RlibmVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmAsmBatch is genExp2RlibmVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp2RlibmAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp2RlibmVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp2RlibmKnuth is the generated exp2 implementation with rlibm-knuth evaluation.
func genExp2RlibmKnuth(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.2c00000000001p+07:
		return 0x1p-151
	case x >= 0x1.fffffffd1d572p+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.715476af0d4d9p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.7154759a0df53p-24:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp2(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := r + -0x1.da30e76af82b7p-03
	t1_1 := t1_0 * t1_0
	t1_2 := t1_1 + 0x1.589b6445c15afp-01
	t1_3 := t1_2 * t1_1
	t1_4 := t1_3 + 0x1.eec7d2dd451fap+00
	t1_5 := r + 0x1.dd958e0ccbc7cp-01
	t1_6 := t1_4 * t1_5
	t1_7 := t1_6 + 0x1.09cd37eb55723p-01
	t1_8 := t1_7 * 0x1.b235e2092600bp-02
	p = t1_8
	return rangered.CompensateExpFamily(p, k)
}

// genExp2RlibmKnuthBlock applies the exp2 rlibm-knuth kernel to every element of b in place.
func genExp2RlibmKnuthBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.2c00000000001p+07:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.fffffffd1d572p+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.715476af0d4d9p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.7154759a0df53p-24:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp2(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := r + -0x1.da30e76af82b7p-03
		t2_1 := t2_0 * t2_0
		t2_2 := t2_1 + 0x1.589b6445c15afp-01
		t2_3 := t2_2 * t2_1
		t2_4 := t2_3 + 0x1.eec7d2dd451fap+00
		t2_5 := r + 0x1.dd958e0ccbc7cp-01
		t2_6 := t2_4 * t2_5
		t2_7 := t2_6 + 0x1.09cd37eb55723p-01
		t2_8 := t2_7 * 0x1.b235e2092600bp-02
		p = t2_8
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp2RlibmKnuthBatch evaluates the exp2 rlibm-knuth kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp2RlibmKnuthBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmKnuthBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmKnuthVecBlock applies the same kernel as genExp2RlibmKnuthBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp2RlibmKnuthBlock for every
// input and length.
func genExp2RlibmKnuthVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * 64)
			r := x - n/64
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.2c00000000001p+07 && x < 0x1.fffffffd1d572p+06 && (x < -0x1.715476af0d4d9p-25 || x > 0x1.7154759a0df53p-24)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := r + -0x1.da30e76af82b7p-03
			tv_1 := tv_0 * tv_0
			tv_2 := tv_1 + 0x1.589b6445c15afp-01
			tv_3 := tv_2 * tv_1
			tv_4 := tv_3 + 0x1.eec7d2dd451fap+00
			tv_5 := r + 0x1.dd958e0ccbc7cp-01
			tv_6 := tv_4 * tv_5
			tv_7 := tv_6 + 0x1.09cd37eb55723p-01
			tv_8 := tv_7 * 0x1.b235e2092600bp-02
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_8)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp2RlibmKnuth(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp2RlibmKnuthBlock(b[n:])
	}
}

// genExp2RlibmKnuthVecBatch is genExp2RlibmKnuthBatch over the vector block kernel.
func genExp2RlibmKnuthVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmKnuthAsmBatch is genExp2RlibmKnuthVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp2RlibmKnuthAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp2RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp2RlibmEstrin is the generated exp2 implementation with rlibm-estrin evaluation.
func genExp2RlibmEstrin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.2c00000000001p+07:
		return 0x1p-151
	case x >= 0x1.fffffffd1d572p+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.715476af0d4d9p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.7154759a0df53p-24:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp2(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := 0x1.62e42ff2c0c5cp-01 * r
	t1_1 := 0x1.0000000000004p+00 + t1_0
	t1_2 := 0x1.c66eb4d6be7f8p-05 * r
	t1_3 := 0x1.ebfbfeaabd07bp-03 + t1_2
	t1_4 := 0x1.b235e2092600bp-02 * r
	t1_5 := 0x1.705654f4995e7p-09 + t1_4
	t1_6 := r * r
	t1_7 := t1_3 * t1_6
	t1_8 := t1_1 + t1_7
	t1_9 := t1_6 * t1_6
	t1_10 := t1_5 * t1_9
	t1_11 := t1_8 + t1_10
	p = t1_11
	return rangered.CompensateExpFamily(p, k)
}

// genExp2RlibmEstrinBlock applies the exp2 rlibm-estrin kernel to every element of b in place.
func genExp2RlibmEstrinBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.2c00000000001p+07:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.fffffffd1d572p+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.715476af0d4d9p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.7154759a0df53p-24:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp2(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := 0x1.62e42ff2c0c5cp-01 * r
		t2_1 := 0x1.0000000000004p+00 + t2_0
		t2_2 := 0x1.c66eb4d6be7f8p-05 * r
		t2_3 := 0x1.ebfbfeaabd07bp-03 + t2_2
		t2_4 := 0x1.b235e2092600bp-02 * r
		t2_5 := 0x1.705654f4995e7p-09 + t2_4
		t2_6 := r * r
		t2_7 := t2_3 * t2_6
		t2_8 := t2_1 + t2_7
		t2_9 := t2_6 * t2_6
		t2_10 := t2_5 * t2_9
		t2_11 := t2_8 + t2_10
		p = t2_11
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp2RlibmEstrinBatch evaluates the exp2 rlibm-estrin kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp2RlibmEstrinBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmEstrinBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmEstrinVecBlock applies the same kernel as genExp2RlibmEstrinBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp2RlibmEstrinBlock for every
// input and length.
func genExp2RlibmEstrinVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * 64)
			r := x - n/64
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.2c00000000001p+07 && x < 0x1.fffffffd1d572p+06 && (x < -0x1.715476af0d4d9p-25 || x > 0x1.7154759a0df53p-24)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := 0x1.62e42ff2c0c5cp-01 * r
			tv_1 := 0x1.0000000000004p+00 + tv_0
			tv_2 := 0x1.c66eb4d6be7f8p-05 * r
			tv_3 := 0x1.ebfbfeaabd07bp-03 + tv_2
			tv_4 := 0x1.b235e2092600bp-02 * r
			tv_5 := 0x1.705654f4995e7p-09 + tv_4
			tv_6 := r * r
			tv_7 := tv_3 * tv_6
			tv_8 := tv_1 + tv_7
			tv_9 := tv_6 * tv_6
			tv_10 := tv_5 * tv_9
			tv_11 := tv_8 + tv_10
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_11)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp2RlibmEstrin(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp2RlibmEstrinBlock(b[n:])
	}
}

// genExp2RlibmEstrinVecBatch is genExp2RlibmEstrinBatch over the vector block kernel.
func genExp2RlibmEstrinVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmEstrinAsmBatch is genExp2RlibmEstrinVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp2RlibmEstrinAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp2RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp2RlibmEstrinFma is the generated exp2 implementation with rlibm-estrin-fma evaluation.
func genExp2RlibmEstrinFma(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.2c00000000001p+07:
		return 0x1p-151
	case x >= 0x1.fffffffd1d572p+06:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.715476af0d4d9p-25:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.7154759a0df53p-24:
		return 0x1.0000008p+00
	}
	r, k := rangered.ReduceExp2(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := math.FMA(0x1.62e42ff2c0c5cp-01, r, 0x1.0000000000004p+00)
	t1_1 := math.FMA(0x1.c66eb4d6be7f8p-05, r, 0x1.ebfbfeaabd07bp-03)
	t1_2 := math.FMA(0x1.b235e2092600bp-02, r, 0x1.705654f4995e7p-09)
	t1_3 := r * r
	t1_4 := math.FMA(t1_1, t1_3, t1_0)
	t1_5 := t1_3 * t1_3
	t1_6 := math.FMA(t1_2, t1_5, t1_4)
	p = t1_6
	return rangered.CompensateExpFamily(p, k)
}

// genExp2RlibmEstrinFmaBlock applies the exp2 rlibm-estrin-fma kernel to every element of b in place.
func genExp2RlibmEstrinFmaBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.2c00000000001p+07:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.fffffffd1d572p+06:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.715476af0d4d9p-25:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.7154759a0df53p-24:
			b[i] = 0x1.0000008p+00
			continue
		}
		r, k := rangered.ReduceExp2(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := math.FMA(0x1.62e42ff2c0c5cp-01, r, 0x1.0000000000004p+00)
		t2_1 := math.FMA(0x1.c66eb4d6be7f8p-05, r, 0x1.ebfbfeaabd07bp-03)
		t2_2 := math.FMA(0x1.b235e2092600bp-02, r, 0x1.705654f4995e7p-09)
		t2_3 := r * r
		t2_4 := math.FMA(t2_1, t2_3, t2_0)
		t2_5 := t2_3 * t2_3
		t2_6 := math.FMA(t2_2, t2_5, t2_4)
		p = t2_6
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp2RlibmEstrinFmaBatch evaluates the exp2 rlibm-estrin-fma kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp2RlibmEstrinFmaBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmEstrinFmaBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmEstrinFmaVecBlock applies the same kernel as genExp2RlibmEstrinFmaBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp2RlibmEstrinFmaBlock for every
// input and length.
func genExp2RlibmEstrinFmaVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * 64)
			r := x - n/64
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.2c00000000001p+07 && x < 0x1.fffffffd1d572p+06 && (x < -0x1.715476af0d4d9p-25 || x > 0x1.7154759a0df53p-24)) {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := math.FMA(0x1.62e42ff2c0c5cp-01, r, 0x1.0000000000004p+00)
			tv_1 := math.FMA(0x1.c66eb4d6be7f8p-05, r, 0x1.ebfbfeaabd07bp-03)
			tv_2 := math.FMA(0x1.b235e2092600bp-02, r, 0x1.705654f4995e7p-09)
			tv_3 := r * r
			tv_4 := math.FMA(tv_1, tv_3, tv_0)
			tv_5 := tv_3 * tv_3
			tv_6 := math.FMA(tv_2, tv_5, tv_4)
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_6)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp2RlibmEstrinFma(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp2RlibmEstrinFmaBlock(b[n:])
	}
}

// genExp2RlibmEstrinFmaVecBatch is genExp2RlibmEstrinFmaBatch over the vector block kernel.
func genExp2RlibmEstrinFmaVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp2RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp2RlibmEstrinFmaAsmBatch is genExp2RlibmEstrinFmaVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp2RlibmEstrinFmaAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp2RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp10Rlibm is the generated exp10 implementation with rlibm evaluation.
func genExp10Rlibm(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.693c6a27ae2f7p+05:
		return 0x1p-151
	case x >= 0x1.344135083ae84p+05:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.bcb7b0741278cp-26:
		return 0x1.0000008p+00
	}
	if x >= 0x1p+01 && x <= 0x1.cp+02 {
		switch math.Float64bits(x) {
		case 0x4000000000000000:
			return 0x1.9p+06
		case 0x4010000000000000:
			return 0x1.388p+13
		case 0x4014000000000000:
			return 0x1.86ap+16
		case 0x401c000000000000:
			return 0x1.312dp+23
		}
	}
	r, k := rangered.ReduceExp10(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := 0x1.e77cc08d3b278p-03 * r
	t1_1 := t1_0 + 0x1.2bbace449e7b7p+00
	t1_2 := t1_1 * r
	t1_3 := t1_2 + 0x1.047061c9eb03ap+01
	t1_4 := t1_3 * r
	t1_5 := t1_4 + 0x1.53524c77e0edap+01
	t1_6 := t1_5 * r
	t1_7 := t1_6 + 0x1.26bb1bbb55b2bp+01
	t1_8 := t1_7 * r
	t1_9 := t1_8 + 0x1p+00
	p = t1_9
	return rangered.CompensateExpFamily(p, k)
}

// genExp10RlibmBlock applies the exp10 rlibm kernel to every element of b in place.
func genExp10RlibmBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.693c6a27ae2f7p+05:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.344135083ae84p+05:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.bcb7b0741278cp-26:
			b[i] = 0x1.0000008p+00
			continue
		}
		if x >= 0x1p+01 && x <= 0x1.cp+02 {
			switch math.Float64bits(x) {
			case 0x4000000000000000:
				b[i] = 0x1.9p+06
				continue
			case 0x4010000000000000:
				b[i] = 0x1.388p+13
				continue
			case 0x4014000000000000:
				b[i] = 0x1.86ap+16
				continue
			case 0x401c000000000000:
				b[i] = 0x1.312dp+23
				continue
			}
		}
		r, k := rangered.ReduceExp10(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := 0x1.e77cc08d3b278p-03 * r
		t2_1 := t2_0 + 0x1.2bbace449e7b7p+00
		t2_2 := t2_1 * r
		t2_3 := t2_2 + 0x1.047061c9eb03ap+01
		t2_4 := t2_3 * r
		t2_5 := t2_4 + 0x1.53524c77e0edap+01
		t2_6 := t2_5 * r
		t2_7 := t2_6 + 0x1.26bb1bbb55b2bp+01
		t2_8 := t2_7 * r
		t2_9 := t2_8 + 0x1p+00
		p = t2_9
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp10RlibmBatch evaluates the exp10 rlibm kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp10RlibmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmVecBlock applies the same kernel as genExp10RlibmBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp10RlibmBlock for every
// input and length.
func genExp10RlibmVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLog10Of2x64)
			r := (x - n*rangered.Log10Of2x64Hi) - n*rangered.Log10Of2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.693c6a27ae2f7p+05 && x < 0x1.344135083ae84p+05 && (x < -0x1.bcb7b1c19c3d5p-27 || x > 0x1.bcb7b0741278cp-26)) {
				sl[l], slow = true, true
			}
			if x >= 0x1p+01 && x <= 0x1.cp+02 {
				switch math.Float64bits(x) {
				case 0x4000000000000000, 0x4010000000000000, 0x4014000000000000, 0x401c000000000000:
					sl[l], slow = true, true
				}
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := 0x1.e77cc08d3b278p-03 * r
			tv_1 := tv_0 + 0x1.2bbace449e7b7p+00
			tv_2 := tv_1 * r
			tv_3 := tv_2 + 0x1.047061c9eb03ap+01
			tv_4 := tv_3 * r
			tv_5 := tv_4 + 0x1.53524c77e0edap+01
			tv_6 := tv_5 * r
			tv_7 := tv_6 + 0x1.26bb1bbb55b2bp+01
			tv_8 := tv_7 * r
			tv_9 := tv_8 + 0x1p+00
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_9)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp10Rlibm(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp10RlibmBlock(b[n:])
	}
}

// genExp10RlibmVecBatch is genExp10RlibmBatch over the vector block kernel.
func genExp10RlibmVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmAsmBatch is genExp10RlibmVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp10RlibmAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp10RlibmVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp10RlibmKnuth is the generated exp10 implementation with rlibm-knuth evaluation.
func genExp10RlibmKnuth(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.693c6a27ae2f7p+05:
		return 0x1p-151
	case x >= 0x1.344135083ae84p+05:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.bcb7b0741278cp-26:
		return 0x1.0000008p+00
	}
	if x >= 0x1p+00 && x <= 0x1.4p+03 {
		switch math.Float64bits(x) {
		case 0x3ff0000000000000:
			return 0x1.4p+03
		case 0x4000000000000000:
			return 0x1.9p+06
		case 0x4008000000000000:
			return 0x1.f4p+09
		case 0x4010000000000000:
			return 0x1.388p+13
		case 0x4014000000000000:
			return 0x1.86ap+16
		case 0x4018000000000000:
			return 0x1.e848p+19
		case 0x401c000000000000:
			return 0x1.312dp+23
		case 0x4020000000000000:
			return 0x1.7d784p+26
		case 0x4022000000000000:
			return 0x1.dcd65p+29
		case 0x4024000000000000:
			return 0x1.2a05f2p+33
		}
	}
	r, k := rangered.ReduceExp10(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := r + -0x1.d91fced14f821p-05
	t1_1 := t1_0 * t1_0
	t1_2 := t1_1 + 0x1.4942d90ca1806p-05
	t1_3 := t1_2 * t1_1
	t1_4 := t1_3 + 0x1.183ca5b4e82edp-07
	t1_5 := r + 0x1.db86aaed65dfp-03
	t1_6 := t1_4 * t1_5
	t1_7 := t1_6 + 0x1.3db1803f30325p-10
	t1_8 := t1_7 * 0x1.3577fe2dc2c41p+08
	p = t1_8
	return rangered.CompensateExpFamily(p, k)
}

// genExp10RlibmKnuthBlock applies the exp10 rlibm-knuth kernel to every element of b in place.
func genExp10RlibmKnuthBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.693c6a27ae2f7p+05:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.344135083ae84p+05:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.bcb7b0741278cp-26:
			b[i] = 0x1.0000008p+00
			continue
		}
		if x >= 0x1p+00 && x <= 0x1.4p+03 {
			switch math.Float64bits(x) {
			case 0x3ff0000000000000:
				b[i] = 0x1.4p+03
				continue
			case 0x4000000000000000:
				b[i] = 0x1.9p+06
				continue
			case 0x4008000000000000:
				b[i] = 0x1.f4p+09
				continue
			case 0x4010000000000000:
				b[i] = 0x1.388p+13
				continue
			case 0x4014000000000000:
				b[i] = 0x1.86ap+16
				continue
			case 0x4018000000000000:
				b[i] = 0x1.e848p+19
				continue
			case 0x401c000000000000:
				b[i] = 0x1.312dp+23
				continue
			case 0x4020000000000000:
				b[i] = 0x1.7d784p+26
				continue
			case 0x4022000000000000:
				b[i] = 0x1.dcd65p+29
				continue
			case 0x4024000000000000:
				b[i] = 0x1.2a05f2p+33
				continue
			}
		}
		r, k := rangered.ReduceExp10(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := r + -0x1.d91fced14f821p-05
		t2_1 := t2_0 * t2_0
		t2_2 := t2_1 + 0x1.4942d90ca1806p-05
		t2_3 := t2_2 * t2_1
		t2_4 := t2_3 + 0x1.183ca5b4e82edp-07
		t2_5 := r + 0x1.db86aaed65dfp-03
		t2_6 := t2_4 * t2_5
		t2_7 := t2_6 + 0x1.3db1803f30325p-10
		t2_8 := t2_7 * 0x1.3577fe2dc2c41p+08
		p = t2_8
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp10RlibmKnuthBatch evaluates the exp10 rlibm-knuth kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp10RlibmKnuthBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmKnuthBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmKnuthVecBlock applies the same kernel as genExp10RlibmKnuthBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp10RlibmKnuthBlock for every
// input and length.
func genExp10RlibmKnuthVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLog10Of2x64)
			r := (x - n*rangered.Log10Of2x64Hi) - n*rangered.Log10Of2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.693c6a27ae2f7p+05 && x < 0x1.344135083ae84p+05 && (x < -0x1.bcb7b1c19c3d5p-27 || x > 0x1.bcb7b0741278cp-26)) {
				sl[l], slow = true, true
			}
			if x >= 0x1p+00 && x <= 0x1.4p+03 {
				switch math.Float64bits(x) {
				case 0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4022000000000000, 0x4024000000000000:
					sl[l], slow = true, true
				}
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := r + -0x1.d91fced14f821p-05
			tv_1 := tv_0 * tv_0
			tv_2 := tv_1 + 0x1.4942d90ca1806p-05
			tv_3 := tv_2 * tv_1
			tv_4 := tv_3 + 0x1.183ca5b4e82edp-07
			tv_5 := r + 0x1.db86aaed65dfp-03
			tv_6 := tv_4 * tv_5
			tv_7 := tv_6 + 0x1.3db1803f30325p-10
			tv_8 := tv_7 * 0x1.3577fe2dc2c41p+08
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_8)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp10RlibmKnuth(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp10RlibmKnuthBlock(b[n:])
	}
}

// genExp10RlibmKnuthVecBatch is genExp10RlibmKnuthBatch over the vector block kernel.
func genExp10RlibmKnuthVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmKnuthAsmBatch is genExp10RlibmKnuthVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp10RlibmKnuthAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp10RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp10RlibmEstrin is the generated exp10 implementation with rlibm-estrin evaluation.
func genExp10RlibmEstrin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.693c6a27ae2f7p+05:
		return 0x1p-151
	case x >= 0x1.344135083ae84p+05:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.bcb7b0741278cp-26:
		return 0x1.0000008p+00
	}
	if x >= 0x1p+00 && x <= 0x1.4p+03 {
		switch math.Float64bits(x) {
		case 0x3ff0000000000000:
			return 0x1.4p+03
		case 0x4000000000000000:
			return 0x1.9p+06
		case 0x4008000000000000:
			return 0x1.f4p+09
		case 0x4010000000000000:
			return 0x1.388p+13
		case 0x4014000000000000:
			return 0x1.86ap+16
		case 0x4018000000000000:
			return 0x1.e848p+19
		case 0x401c000000000000:
			return 0x1.312dp+23
		case 0x4020000000000000:
			return 0x1.7d784p+26
		case 0x4022000000000000:
			return 0x1.dcd65p+29
		case 0x4024000000000000:
			return 0x1.2a05f2p+33
		}
	}
	r, k := rangered.ReduceExp10(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := 0x1.26bb1bc402cep+01 * r
	t1_1 := 0x1.fffffffffffeap-01 + t1_0
	t1_2 := 0x1.041b4fdf3559ep+01 * r
	t1_3 := 0x1.535263a62597dp+01 + t1_2
	t1_4 := 0x1.34bf83529953ep+08 * r
	t1_5 := 0x1.73632c8fe2952p-02 + t1_4
	t1_6 := r * r
	t1_7 := t1_3 * t1_6
	t1_8 := t1_1 + t1_7
	t1_9 := t1_6 * t1_6
	t1_10 := t1_5 * t1_9
	t1_11 := t1_8 + t1_10
	p = t1_11
	return rangered.CompensateExpFamily(p, k)
}

// genExp10RlibmEstrinBlock applies the exp10 rlibm-estrin kernel to every element of b in place.
func genExp10RlibmEstrinBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.693c6a27ae2f7p+05:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.344135083ae84p+05:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.bcb7b0741278cp-26:
			b[i] = 0x1.0000008p+00
			continue
		}
		if x >= 0x1p+00 && x <= 0x1.4p+03 {
			switch math.Float64bits(x) {
			case 0x3ff0000000000000:
				b[i] = 0x1.4p+03
				continue
			case 0x4000000000000000:
				b[i] = 0x1.9p+06
				continue
			case 0x4008000000000000:
				b[i] = 0x1.f4p+09
				continue
			case 0x4010000000000000:
				b[i] = 0x1.388p+13
				continue
			case 0x4014000000000000:
				b[i] = 0x1.86ap+16
				continue
			case 0x4018000000000000:
				b[i] = 0x1.e848p+19
				continue
			case 0x401c000000000000:
				b[i] = 0x1.312dp+23
				continue
			case 0x4020000000000000:
				b[i] = 0x1.7d784p+26
				continue
			case 0x4022000000000000:
				b[i] = 0x1.dcd65p+29
				continue
			case 0x4024000000000000:
				b[i] = 0x1.2a05f2p+33
				continue
			}
		}
		r, k := rangered.ReduceExp10(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := 0x1.26bb1bc402cep+01 * r
		t2_1 := 0x1.fffffffffffeap-01 + t2_0
		t2_2 := 0x1.041b4fdf3559ep+01 * r
		t2_3 := 0x1.535263a62597dp+01 + t2_2
		t2_4 := 0x1.34bf83529953ep+08 * r
		t2_5 := 0x1.73632c8fe2952p-02 + t2_4
		t2_6 := r * r
		t2_7 := t2_3 * t2_6
		t2_8 := t2_1 + t2_7
		t2_9 := t2_6 * t2_6
		t2_10 := t2_5 * t2_9
		t2_11 := t2_8 + t2_10
		p = t2_11
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp10RlibmEstrinBatch evaluates the exp10 rlibm-estrin kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp10RlibmEstrinBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmEstrinBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmEstrinVecBlock applies the same kernel as genExp10RlibmEstrinBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp10RlibmEstrinBlock for every
// input and length.
func genExp10RlibmEstrinVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLog10Of2x64)
			r := (x - n*rangered.Log10Of2x64Hi) - n*rangered.Log10Of2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.693c6a27ae2f7p+05 && x < 0x1.344135083ae84p+05 && (x < -0x1.bcb7b1c19c3d5p-27 || x > 0x1.bcb7b0741278cp-26)) {
				sl[l], slow = true, true
			}
			if x >= 0x1p+00 && x <= 0x1.4p+03 {
				switch math.Float64bits(x) {
				case 0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4022000000000000, 0x4024000000000000:
					sl[l], slow = true, true
				}
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := 0x1.26bb1bc402cep+01 * r
			tv_1 := 0x1.fffffffffffeap-01 + tv_0
			tv_2 := 0x1.041b4fdf3559ep+01 * r
			tv_3 := 0x1.535263a62597dp+01 + tv_2
			tv_4 := 0x1.34bf83529953ep+08 * r
			tv_5 := 0x1.73632c8fe2952p-02 + tv_4
			tv_6 := r * r
			tv_7 := tv_3 * tv_6
			tv_8 := tv_1 + tv_7
			tv_9 := tv_6 * tv_6
			tv_10 := tv_5 * tv_9
			tv_11 := tv_8 + tv_10
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_11)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp10RlibmEstrin(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp10RlibmEstrinBlock(b[n:])
	}
}

// genExp10RlibmEstrinVecBatch is genExp10RlibmEstrinBatch over the vector block kernel.
func genExp10RlibmEstrinVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmEstrinAsmBatch is genExp10RlibmEstrinVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp10RlibmEstrinAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp10RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genExp10RlibmEstrinFma is the generated exp10 implementation with rlibm-estrin-fma evaluation.
func genExp10RlibmEstrinFma(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= -0x1.693c6a27ae2f7p+05:
		return 0x1p-151
	case x >= 0x1.344135083ae84p+05:
		return 0x1.ffffff8p+127
	case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
		return 0x1.ffffff8p-01
	case x > 0 && x <= 0x1.bcb7b0741278cp-26:
		return 0x1.0000008p+00
	}
	if x >= 0x1p+00 && x <= 0x1.4p+03 {
		switch math.Float64bits(x) {
		case 0x3ff0000000000000:
			return 0x1.4p+03
		case 0x4000000000000000:
			return 0x1.9p+06
		case 0x4008000000000000:
			return 0x1.f4p+09
		case 0x4010000000000000:
			return 0x1.388p+13
		case 0x4014000000000000:
			return 0x1.86ap+16
		case 0x4018000000000000:
			return 0x1.e848p+19
		case 0x401c000000000000:
			return 0x1.312dp+23
		case 0x4020000000000000:
			return 0x1.7d784p+26
		case 0x4022000000000000:
			return 0x1.dcd65p+29
		case 0x4024000000000000:
			return 0x1.2a05f2p+33
		}
	}
	r, k := rangered.ReduceExp10(x)
	if r == 0 {
		return rangered.CompensateExpFamily(1, k)
	}
	var p float64
	t1_0 := math.FMA(0x1.26bb1bc402cep+01, r, 0x1.fffffffffffeap-01)
	t1_1 := math.FMA(0x1.041b4fdf3559ep+01, r, 0x1.535263a62597dp+01)
	t1_2 := math.FMA(0x1.34bf83529953ep+08, r, 0x1.73632c8fe2952p-02)
	t1_3 := r * r
	t1_4 := math.FMA(t1_1, t1_3, t1_0)
	t1_5 := t1_3 * t1_3
	t1_6 := math.FMA(t1_2, t1_5, t1_4)
	p = t1_6
	return rangered.CompensateExpFamily(p, k)
}

// genExp10RlibmEstrinFmaBlock applies the exp10 rlibm-estrin-fma kernel to every element of b in place.
func genExp10RlibmEstrinFmaBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		case math.IsInf(x, -1):
			b[i] = 0
			continue
		case x == 0:
			b[i] = 1
			continue
		case x <= -0x1.693c6a27ae2f7p+05:
			b[i] = 0x1p-151
			continue
		case x >= 0x1.344135083ae84p+05:
			b[i] = 0x1.ffffff8p+127
			continue
		case x < 0 && x >= -0x1.bcb7b1c19c3d5p-27:
			b[i] = 0x1.ffffff8p-01
			continue
		case x > 0 && x <= 0x1.bcb7b0741278cp-26:
			b[i] = 0x1.0000008p+00
			continue
		}
		if x >= 0x1p+00 && x <= 0x1.4p+03 {
			switch math.Float64bits(x) {
			case 0x3ff0000000000000:
				b[i] = 0x1.4p+03
				continue
			case 0x4000000000000000:
				b[i] = 0x1.9p+06
				continue
			case 0x4008000000000000:
				b[i] = 0x1.f4p+09
				continue
			case 0x4010000000000000:
				b[i] = 0x1.388p+13
				continue
			case 0x4014000000000000:
				b[i] = 0x1.86ap+16
				continue
			case 0x4018000000000000:
				b[i] = 0x1.e848p+19
				continue
			case 0x401c000000000000:
				b[i] = 0x1.312dp+23
				continue
			case 0x4020000000000000:
				b[i] = 0x1.7d784p+26
				continue
			case 0x4022000000000000:
				b[i] = 0x1.dcd65p+29
				continue
			case 0x4024000000000000:
				b[i] = 0x1.2a05f2p+33
				continue
			}
		}
		r, k := rangered.ReduceExp10(x)
		if r == 0 {
			b[i] = rangered.CompensateExpFamily(1, k)
			continue
		}
		var p float64
		t2_0 := math.FMA(0x1.26bb1bc402cep+01, r, 0x1.fffffffffffeap-01)
		t2_1 := math.FMA(0x1.041b4fdf3559ep+01, r, 0x1.535263a62597dp+01)
		t2_2 := math.FMA(0x1.34bf83529953ep+08, r, 0x1.73632c8fe2952p-02)
		t2_3 := r * r
		t2_4 := math.FMA(t2_1, t2_3, t2_0)
		t2_5 := t2_3 * t2_3
		t2_6 := math.FMA(t2_2, t2_5, t2_4)
		p = t2_6
		b[i] = rangered.CompensateExpFamily(p, k)
	}
}

// genExp10RlibmEstrinFmaBatch evaluates the exp10 rlibm-estrin-fma kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genExp10RlibmEstrinFmaBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmEstrinFmaBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmEstrinFmaVecBlock applies the same kernel as genExp10RlibmEstrinFmaBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genExp10RlibmEstrinFmaBlock for every
// input and length.
func genExp10RlibmEstrinFmaVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vs, vx [generatedVecLanes]float64
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			n := math.Round(x * rangered.InvLog10Of2x64)
			r := (x - n*rangered.Log10Of2x64Hi) - n*rangered.Log10Of2x64Lo
			ni := int32(n)
			k := rangered.Key{Q: ni >> 6, J: ni & 63}
			vr[l] = r
			vs[l] = rangered.CompensateExpFamily(1, k)
			if !(x > -0x1.693c6a27ae2f7p+05 && x < 0x1.344135083ae84p+05 && (x < -0x1.bcb7b1c19c3d5p-27 || x > 0x1.bcb7b0741278cp-26)) {
				sl[l], slow = true, true
			}
			if x >= 0x1p+00 && x <= 0x1.4p+03 {
				switch math.Float64bits(x) {
				case 0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4022000000000000, 0x4024000000000000:
					sl[l], slow = true, true
				}
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := math.FMA(0x1.26bb1bc402cep+01, r, 0x1.fffffffffffeap-01)
			tv_1 := math.FMA(0x1.041b4fdf3559ep+01, r, 0x1.535263a62597dp+01)
			tv_2 := math.FMA(0x1.34bf83529953ep+08, r, 0x1.73632c8fe2952p-02)
			tv_3 := r * r
			tv_4 := math.FMA(tv_1, tv_3, tv_0)
			tv_5 := tv_3 * tv_3
			tv_6 := math.FMA(tv_2, tv_5, tv_4)
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_6)&-m | 0x3ff0000000000000&(m-1)
			v[l] = math.Float64frombits(pb) * vs[l]
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genExp10RlibmEstrinFma(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genExp10RlibmEstrinFmaBlock(b[n:])
	}
}

// genExp10RlibmEstrinFmaVecBatch is genExp10RlibmEstrinFmaBatch over the vector block kernel.
func genExp10RlibmEstrinFmaVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genExp10RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genExp10RlibmEstrinFmaAsmBatch is genExp10RlibmEstrinFmaVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genExp10RlibmEstrinFmaAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genExp10RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLogRlibm is the generated log implementation with rlibm evaluation.
func genLogRlibm(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLn(0, k)
	}
	var p float64
	if r < 0x1.57655e7f2414ap-09 {
		t2_0 := -0x1.49fc4e6090a35p+03 * r
		t2_1 := t2_0 + 0x1.8f64917c3c47p-02
		t2_2 := t2_1 * r
		t2_3 := t2_2 + -0x1.000dcfe088d2dp-01
		t2_4 := t2_3 * r
		t2_5 := t2_4 + 0x1.000001356031bp+00
		t2_6 := t2_5 * r
		t2_7 := t2_6 + -0x1.ee52ce9474d58p-37
		p = t2_7
	} else {
		t2_0 := -0x1.4cd6d61a6dd99p-01 * r
		t2_1 := t2_0 + 0x1.5dc4f1ca79c0cp-02
		t2_2 := t2_1 * r
		t2_3 := t2_2 + -0x1.0007f07740023p-01
		t2_4 := t2_3 * r
		t2_5 := t2_4 + 0x1.00000327df164p+00
		t2_6 := t2_5 * r
		t2_7 := t2_6 + -0x1.cb6af623702b5p-33
		p = t2_7
	}
	return rangered.CompensateLn(p, k)
}

// genLogRlibmBlock applies the log rlibm kernel to every element of b in place.
func genLogRlibmBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLn(0, k)
			continue
		}
		var p float64
		if r < 0x1.57655e7f2414ap-09 {
			t3_0 := -0x1.49fc4e6090a35p+03 * r
			t3_1 := t3_0 + 0x1.8f64917c3c47p-02
			t3_2 := t3_1 * r
			t3_3 := t3_2 + -0x1.000dcfe088d2dp-01
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.000001356031bp+00
			t3_6 := t3_5 * r
			t3_7 := t3_6 + -0x1.ee52ce9474d58p-37
			p = t3_7
		} else {
			t3_0 := -0x1.4cd6d61a6dd99p-01 * r
			t3_1 := t3_0 + 0x1.5dc4f1ca79c0cp-02
			t3_2 := t3_1 * r
			t3_3 := t3_2 + -0x1.0007f07740023p-01
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.00000327df164p+00
			t3_6 := t3_5 * r
			t3_7 := t3_6 + -0x1.cb6af623702b5p-33
			p = t3_7
		}
		b[i] = rangered.CompensateLn(p, k)
	}
}

// genLogRlibmBatch evaluates the log rlibm kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLogRlibmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmVecTab holds the per-piece coefficient rows of genLogRlibmVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLogRlibmVecTab = [2][5]float64{
	{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03},
	{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01},
}

// genLogRlibmVecBlock applies the same kernel as genLogRlibmBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLogRlibmBlock for every
// input and length.
func genLogRlibmVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57655e7f2414ap-09)) >> 63) ^ 1
			c := &genLogRlibmVecTab[sel]
			tv_0 := c[4] * r
			tv_1 := tv_0 + c[3]
			tv_2 := tv_1 * r
			tv_3 := tv_2 + c[2]
			tv_4 := tv_3 * r
			tv_5 := tv_4 + c[1]
			tv_6 := tv_5 * r
			tv_7 := tv_6 + c[0]
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_7) & -m
			v[l] = rangered.CompensateLn(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLogRlibm(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLogRlibmBlock(b[n:])
	}
}

// genLogRlibmVecBatch is genLogRlibmBatch over the vector block kernel.
func genLogRlibmVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmAsmBatch is genLogRlibmVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLogRlibmAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLogRlibmVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLogRlibmKnuth is the generated log implementation with rlibm-knuth evaluation.
func genLogRlibmKnuth(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLn(0, k)
	}
	var p float64
	if r < 0x1.57655e7f2414ap-09 {
		t2_0 := r + -0x1.09aec3bbc39ffp-01
		t2_1 := t2_0 * r
		t2_2 := t2_1 + 0x1.d8f52734cb15ap-05
		t2_3 := t2_2 + r
		t2_4 := t2_3 + 0x1.761c6890ba737p-03
		t2_5 := t2_4 * t2_2
		t2_6 := t2_5 + -0x1.c6ce6f0d4a602p-07
		t2_7 := t2_6 * -0x1.49fc4e6090a35p+03
		p = t2_7
	} else {
		t2_0 := r + -0x1.8682c4b10d749p-01
		t2_1 := t2_0 * r
		t2_2 := t2_1 + -0x1.a087f39acc78ep-01
		t2_3 := t2_2 + r
		t2_4 := t2_3 + 0x1.49e491aa17f39p+01
		t2_5 := t2_4 * t2_2
		t2_6 := t2_5 + 0x1.6f54162f8ed4dp+00
		t2_7 := t2_6 * -0x1.4cd6d61a6dd99p-01
		p = t2_7
	}
	return rangered.CompensateLn(p, k)
}

// genLogRlibmKnuthBlock applies the log rlibm-knuth kernel to every element of b in place.
func genLogRlibmKnuthBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLn(0, k)
			continue
		}
		var p float64
		if r < 0x1.57655e7f2414ap-09 {
			t3_0 := r + -0x1.09aec3bbc39ffp-01
			t3_1 := t3_0 * r
			t3_2 := t3_1 + 0x1.d8f52734cb15ap-05
			t3_3 := t3_2 + r
			t3_4 := t3_3 + 0x1.761c6890ba737p-03
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + -0x1.c6ce6f0d4a602p-07
			t3_7 := t3_6 * -0x1.49fc4e6090a35p+03
			p = t3_7
		} else {
			t3_0 := r + -0x1.8682c4b10d749p-01
			t3_1 := t3_0 * r
			t3_2 := t3_1 + -0x1.a087f39acc78ep-01
			t3_3 := t3_2 + r
			t3_4 := t3_3 + 0x1.49e491aa17f39p+01
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + 0x1.6f54162f8ed4dp+00
			t3_7 := t3_6 * -0x1.4cd6d61a6dd99p-01
			p = t3_7
		}
		b[i] = rangered.CompensateLn(p, k)
	}
}

// genLogRlibmKnuthBatch evaluates the log rlibm-knuth kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLogRlibmKnuthBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmKnuthBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmKnuthVecTab holds the per-piece coefficient rows of genLogRlibmKnuthVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLogRlibmKnuthVecTab = [2][5]float64{
	{-0x1.09aec3bbc39ffp-01, 0x1.d8f52734cb15ap-05, 0x1.761c6890ba737p-03, -0x1.c6ce6f0d4a602p-07, -0x1.49fc4e6090a35p+03},
	{-0x1.8682c4b10d749p-01, -0x1.a087f39acc78ep-01, 0x1.49e491aa17f39p+01, 0x1.6f54162f8ed4dp+00, -0x1.4cd6d61a6dd99p-01},
}

// genLogRlibmKnuthVecBlock applies the same kernel as genLogRlibmKnuthBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLogRlibmKnuthBlock for every
// input and length.
func genLogRlibmKnuthVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57655e7f2414ap-09)) >> 63) ^ 1
			c := &genLogRlibmKnuthVecTab[sel]
			tv_0 := r + c[0]
			tv_1 := tv_0 * r
			tv_2 := tv_1 + c[1]
			tv_3 := tv_2 + r
			tv_4 := tv_3 + c[2]
			tv_5 := tv_4 * tv_2
			tv_6 := tv_5 + c[3]
			tv_7 := tv_6 * c[4]
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_7) & -m
			v[l] = rangered.CompensateLn(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLogRlibmKnuth(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLogRlibmKnuthBlock(b[n:])
	}
}

// genLogRlibmKnuthVecBatch is genLogRlibmKnuthBatch over the vector block kernel.
func genLogRlibmKnuthVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmKnuthAsmBatch is genLogRlibmKnuthVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLogRlibmKnuthAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLogRlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLogRlibmEstrin is the generated log implementation with rlibm-estrin evaluation.
func genLogRlibmEstrin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLn(0, k)
	}
	var p float64
	if r < 0x1.57655e7f2414ap-09 {
		t2_0 := 0x1.000001356031bp+00 * r
		t2_1 := -0x1.ee52ce9474d58p-37 + t2_0
		t2_2 := 0x1.8f64917c3c47p-02 * r
		t2_3 := -0x1.000dcfe088d2dp-01 + t2_2
		t2_4 := r * r
		t2_5 := t2_3 * t2_4
		t2_6 := t2_1 + t2_5
		t2_7 := t2_4 * t2_4
		t2_8 := -0x1.49fc4e6090a35p+03 * t2_7
		t2_9 := t2_6 + t2_8
		p = t2_9
	} else {
		t2_0 := 0x1.00000327df164p+00 * r
		t2_1 := -0x1.cb6af623702b5p-33 + t2_0
		t2_2 := 0x1.5dc4f1ca79c0cp-02 * r
		t2_3 := -0x1.0007f07740023p-01 + t2_2
		t2_4 := r * r
		t2_5 := t2_3 * t2_4
		t2_6 := t2_1 + t2_5
		t2_7 := t2_4 * t2_4
		t2_8 := -0x1.4cd6d61a6dd99p-01 * t2_7
		t2_9 := t2_6 + t2_8
		p = t2_9
	}
	return rangered.CompensateLn(p, k)
}

// genLogRlibmEstrinBlock applies the log rlibm-estrin kernel to every element of b in place.
func genLogRlibmEstrinBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLn(0, k)
			continue
		}
		var p float64
		if r < 0x1.57655e7f2414ap-09 {
			t3_0 := 0x1.000001356031bp+00 * r
			t3_1 := -0x1.ee52ce9474d58p-37 + t3_0
			t3_2 := 0x1.8f64917c3c47p-02 * r
			t3_3 := -0x1.000dcfe088d2dp-01 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := -0x1.49fc4e6090a35p+03 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		} else {
			t3_0 := 0x1.00000327df164p+00 * r
			t3_1 := -0x1.cb6af623702b5p-33 + t3_0
			t3_2 := 0x1.5dc4f1ca79c0cp-02 * r
			t3_3 := -0x1.0007f07740023p-01 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := -0x1.4cd6d61a6dd99p-01 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		}
		b[i] = rangered.CompensateLn(p, k)
	}
}

// genLogRlibmEstrinBatch evaluates the log rlibm-estrin kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLogRlibmEstrinBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmEstrinBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmEstrinVecTab holds the per-piece coefficient rows of genLogRlibmEstrinVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLogRlibmEstrinVecTab = [2][5]float64{
	{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03},
	{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01},
}

// genLogRlibmEstrinVecBlock applies the same kernel as genLogRlibmEstrinBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLogRlibmEstrinBlock for every
// input and length.
func genLogRlibmEstrinVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57655e7f2414ap-09)) >> 63) ^ 1
			c := &genLogRlibmEstrinVecTab[sel]
			tv_0 := c[1] * r
			tv_1 := c[0] + tv_0
			tv_2 := c[3] * r
			tv_3 := c[2] + tv_2
			tv_4 := r * r
			tv_5 := tv_3 * tv_4
			tv_6 := tv_1 + tv_5
			tv_7 := tv_4 * tv_4
			tv_8 := c[4] * tv_7
			tv_9 := tv_6 + tv_8
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_9) & -m
			v[l] = rangered.CompensateLn(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLogRlibmEstrin(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLogRlibmEstrinBlock(b[n:])
	}
}

// genLogRlibmEstrinVecBatch is genLogRlibmEstrinBatch over the vector block kernel.
func genLogRlibmEstrinVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmEstrinAsmBatch is genLogRlibmEstrinVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLogRlibmEstrinAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLogRlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLogRlibmEstrinFma is the generated log implementation with rlibm-estrin-fma evaluation.
func genLogRlibmEstrinFma(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLn(0, k)
	}
	var p float64
	if r < 0x1.57655e7f2414ap-09 {
		t2_0 := math.FMA(0x1.000001356031bp+00, r, -0x1.ee52ce9474d58p-37)
		t2_1 := math.FMA(0x1.8f64917c3c47p-02, r, -0x1.000dcfe088d2dp-01)
		t2_2 := r * r
		t2_3 := math.FMA(t2_1, t2_2, t2_0)
		t2_4 := t2_2 * t2_2
		t2_5 := math.FMA(-0x1.49fc4e6090a35p+03, t2_4, t2_3)
		p = t2_5
	} else {
		t2_0 := math.FMA(0x1.00000327df164p+00, r, -0x1.cb6af623702b5p-33)
		t2_1 := math.FMA(0x1.5dc4f1ca79c0cp-02, r, -0x1.0007f07740023p-01)
		t2_2 := r * r
		t2_3 := math.FMA(t2_1, t2_2, t2_0)
		t2_4 := t2_2 * t2_2
		t2_5 := math.FMA(-0x1.4cd6d61a6dd99p-01, t2_4, t2_3)
		p = t2_5
	}
	return rangered.CompensateLn(p, k)
}

// genLogRlibmEstrinFmaBlock applies the log rlibm-estrin-fma kernel to every element of b in place.
func genLogRlibmEstrinFmaBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLn(0, k)
			continue
		}
		var p float64
		if r < 0x1.57655e7f2414ap-09 {
			t3_0 := math.FMA(0x1.000001356031bp+00, r, -0x1.ee52ce9474d58p-37)
			t3_1 := math.FMA(0x1.8f64917c3c47p-02, r, -0x1.000dcfe088d2dp-01)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(-0x1.49fc4e6090a35p+03, t3_4, t3_3)
			p = t3_5
		} else {
			t3_0 := math.FMA(0x1.00000327df164p+00, r, -0x1.cb6af623702b5p-33)
			t3_1 := math.FMA(0x1.5dc4f1ca79c0cp-02, r, -0x1.0007f07740023p-01)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(-0x1.4cd6d61a6dd99p-01, t3_4, t3_3)
			p = t3_5
		}
		b[i] = rangered.CompensateLn(p, k)
	}
}

// genLogRlibmEstrinFmaBatch evaluates the log rlibm-estrin-fma kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLogRlibmEstrinFmaBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmEstrinFmaBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmEstrinFmaVecTab holds the per-piece coefficient rows of genLogRlibmEstrinFmaVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLogRlibmEstrinFmaVecTab = [2][5]float64{
	{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03},
	{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01},
}

// genLogRlibmEstrinFmaVecBlock applies the same kernel as genLogRlibmEstrinFmaBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLogRlibmEstrinFmaBlock for every
// input and length.
func genLogRlibmEstrinFmaVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57655e7f2414ap-09)) >> 63) ^ 1
			c := &genLogRlibmEstrinFmaVecTab[sel]
			tv_0 := math.FMA(c[1], r, c[0])
			tv_1 := math.FMA(c[3], r, c[2])
			tv_2 := r * r
			tv_3 := math.FMA(tv_1, tv_2, tv_0)
			tv_4 := tv_2 * tv_2
			tv_5 := math.FMA(c[4], tv_4, tv_3)
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_5) & -m
			v[l] = rangered.CompensateLn(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLogRlibmEstrinFma(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLogRlibmEstrinFmaBlock(b[n:])
	}
}

// genLogRlibmEstrinFmaVecBatch is genLogRlibmEstrinFmaBatch over the vector block kernel.
func genLogRlibmEstrinFmaVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLogRlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLogRlibmEstrinFmaAsmBatch is genLogRlibmEstrinFmaVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLogRlibmEstrinFmaAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLogRlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog2Rlibm is the generated log2 implementation with rlibm evaluation.
func genLog2Rlibm(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog2(0, k)
	}
	var p float64
	t1_0 := -0x1.03c248ac35842p+06 * r
	t1_1 := t1_0 + 0x1.ebfe654496165p-02
	t1_2 := t1_1 * r
	t1_3 := t1_2 + 0x1.e9163f794ad3ap-02
	t1_4 := t1_3 * r
	t1_5 := t1_4 + -0x1.7153f164a980fp-01
	t1_6 := t1_5 * r
	t1_7 := t1_6 + 0x1.715476538bafbp+00
	t1_8 := t1_7 * r
	t1_9 := t1_8 + -0x1.a1e45e74c4bd8p-39
	p = t1_9
	return rangered.CompensateLog2(p, k)
}

// genLog2RlibmBlock applies the log2 rlibm kernel to every element of b in place.
func genLog2RlibmBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog2(0, k)
			continue
		}
		var p float64
		t2_0 := -0x1.03c248ac35842p+06 * r
		t2_1 := t2_0 + 0x1.ebfe654496165p-02
		t2_2 := t2_1 * r
		t2_3 := t2_2 + 0x1.e9163f794ad3ap-02
		t2_4 := t2_3 * r
		t2_5 := t2_4 + -0x1.7153f164a980fp-01
		t2_6 := t2_5 * r
		t2_7 := t2_6 + 0x1.715476538bafbp+00
		t2_8 := t2_7 * r
		t2_9 := t2_8 + -0x1.a1e45e74c4bd8p-39
		p = t2_9
		b[i] = rangered.CompensateLog2(p, k)
	}
}

// genLog2RlibmBatch evaluates the log2 rlibm kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog2RlibmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmVecBlock applies the same kernel as genLog2RlibmBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog2RlibmBlock for every
// input and length.
func genLog2RlibmVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := -0x1.03c248ac35842p+06 * r
			tv_1 := tv_0 + 0x1.ebfe654496165p-02
			tv_2 := tv_1 * r
			tv_3 := tv_2 + 0x1.e9163f794ad3ap-02
			tv_4 := tv_3 * r
			tv_5 := tv_4 + -0x1.7153f164a980fp-01
			tv_6 := tv_5 * r
			tv_7 := tv_6 + 0x1.715476538bafbp+00
			tv_8 := tv_7 * r
			tv_9 := tv_8 + -0x1.a1e45e74c4bd8p-39
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_9) & -m
			v[l] = rangered.CompensateLog2(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog2Rlibm(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog2RlibmBlock(b[n:])
	}
}

// genLog2RlibmVecBatch is genLog2RlibmBatch over the vector block kernel.
func genLog2RlibmVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmAsmBatch is genLog2RlibmVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog2RlibmAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog2RlibmVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog2RlibmKnuth is the generated log2 implementation with rlibm-knuth evaluation.
func genLog2RlibmKnuth(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog2(0, k)
	}
	var p float64
	t1_0 := r + -0x1.18c076b565ed6p-04
	t1_1 := t1_0 * t1_0
	t1_2 := t1_1 + 0x1.3400a1d1b4395p-05
	t1_3 := t1_2 * t1_1
	t1_4 := t1_3 + -0x1.53155415256e6p-06
	t1_5 := r + 0x1.112cf78ac6342p-02
	t1_6 := t1_4 * t1_5
	t1_7 := t1_6 + 0x1.665beceb15469p-08
	t1_8 := t1_7 * -0x1.03c248ac35842p+06
	p = t1_8
	return rangered.CompensateLog2(p, k)
}

// genLog2RlibmKnuthBlock applies the log2 rlibm-knuth kernel to every element of b in place.
func genLog2RlibmKnuthBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog2(0, k)
			continue
		}
		var p float64
		t2_0 := r + -0x1.18c076b565ed6p-04
		t2_1 := t2_0 * t2_0
		t2_2 := t2_1 + 0x1.3400a1d1b4395p-05
		t2_3 := t2_2 * t2_1
		t2_4 := t2_3 + -0x1.53155415256e6p-06
		t2_5 := r + 0x1.112cf78ac6342p-02
		t2_6 := t2_4 * t2_5
		t2_7 := t2_6 + 0x1.665beceb15469p-08
		t2_8 := t2_7 * -0x1.03c248ac35842p+06
		p = t2_8
		b[i] = rangered.CompensateLog2(p, k)
	}
}

// genLog2RlibmKnuthBatch evaluates the log2 rlibm-knuth kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog2RlibmKnuthBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmKnuthBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmKnuthVecBlock applies the same kernel as genLog2RlibmKnuthBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog2RlibmKnuthBlock for every
// input and length.
func genLog2RlibmKnuthVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := r + -0x1.18c076b565ed6p-04
			tv_1 := tv_0 * tv_0
			tv_2 := tv_1 + 0x1.3400a1d1b4395p-05
			tv_3 := tv_2 * tv_1
			tv_4 := tv_3 + -0x1.53155415256e6p-06
			tv_5 := r + 0x1.112cf78ac6342p-02
			tv_6 := tv_4 * tv_5
			tv_7 := tv_6 + 0x1.665beceb15469p-08
			tv_8 := tv_7 * -0x1.03c248ac35842p+06
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_8) & -m
			v[l] = rangered.CompensateLog2(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog2RlibmKnuth(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog2RlibmKnuthBlock(b[n:])
	}
}

// genLog2RlibmKnuthVecBatch is genLog2RlibmKnuthBatch over the vector block kernel.
func genLog2RlibmKnuthVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmKnuthAsmBatch is genLog2RlibmKnuthVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog2RlibmKnuthAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog2RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog2RlibmEstrin is the generated log2 implementation with rlibm-estrin evaluation.
func genLog2RlibmEstrin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog2(0, k)
	}
	var p float64
	t1_0 := 0x1.715476538bafbp+00 * r
	t1_1 := -0x1.a1e45e74c4bd8p-39 + t1_0
	t1_2 := 0x1.e9163f794ad3ap-02 * r
	t1_3 := -0x1.7153f164a980fp-01 + t1_2
	t1_4 := -0x1.03c248ac35842p+06 * r
	t1_5 := 0x1.ebfe654496165p-02 + t1_4
	t1_6 := r * r
	t1_7 := t1_3 * t1_6
	t1_8 := t1_1 + t1_7
	t1_9 := t1_6 * t1_6
	t1_10 := t1_5 * t1_9
	t1_11 := t1_8 + t1_10
	p = t1_11
	return rangered.CompensateLog2(p, k)
}

// genLog2RlibmEstrinBlock applies the log2 rlibm-estrin kernel to every element of b in place.
func genLog2RlibmEstrinBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog2(0, k)
			continue
		}
		var p float64
		t2_0 := 0x1.715476538bafbp+00 * r
		t2_1 := -0x1.a1e45e74c4bd8p-39 + t2_0
		t2_2 := 0x1.e9163f794ad3ap-02 * r
		t2_3 := -0x1.7153f164a980fp-01 + t2_2
		t2_4 := -0x1.03c248ac35842p+06 * r
		t2_5 := 0x1.ebfe654496165p-02 + t2_4
		t2_6 := r * r
		t2_7 := t2_3 * t2_6
		t2_8 := t2_1 + t2_7
		t2_9 := t2_6 * t2_6
		t2_10 := t2_5 * t2_9
		t2_11 := t2_8 + t2_10
		p = t2_11
		b[i] = rangered.CompensateLog2(p, k)
	}
}

// genLog2RlibmEstrinBatch evaluates the log2 rlibm-estrin kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog2RlibmEstrinBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmEstrinBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmEstrinVecBlock applies the same kernel as genLog2RlibmEstrinBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog2RlibmEstrinBlock for every
// input and length.
func genLog2RlibmEstrinVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := 0x1.715476538bafbp+00 * r
			tv_1 := -0x1.a1e45e74c4bd8p-39 + tv_0
			tv_2 := 0x1.e9163f794ad3ap-02 * r
			tv_3 := -0x1.7153f164a980fp-01 + tv_2
			tv_4 := -0x1.03c248ac35842p+06 * r
			tv_5 := 0x1.ebfe654496165p-02 + tv_4
			tv_6 := r * r
			tv_7 := tv_3 * tv_6
			tv_8 := tv_1 + tv_7
			tv_9 := tv_6 * tv_6
			tv_10 := tv_5 * tv_9
			tv_11 := tv_8 + tv_10
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_11) & -m
			v[l] = rangered.CompensateLog2(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog2RlibmEstrin(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog2RlibmEstrinBlock(b[n:])
	}
}

// genLog2RlibmEstrinVecBatch is genLog2RlibmEstrinBatch over the vector block kernel.
func genLog2RlibmEstrinVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmEstrinAsmBatch is genLog2RlibmEstrinVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog2RlibmEstrinAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog2RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog2RlibmEstrinFma is the generated log2 implementation with rlibm-estrin-fma evaluation.
func genLog2RlibmEstrinFma(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog2(0, k)
	}
	var p float64
	t1_0 := math.FMA(0x1.715476538bafbp+00, r, -0x1.a1e45e74c4bd8p-39)
	t1_1 := math.FMA(0x1.e9163f794ad3ap-02, r, -0x1.7153f164a980fp-01)
	t1_2 := math.FMA(-0x1.03c248ac35842p+06, r, 0x1.ebfe654496165p-02)
	t1_3 := r * r
	t1_4 := math.FMA(t1_1, t1_3, t1_0)
	t1_5 := t1_3 * t1_3
	t1_6 := math.FMA(t1_2, t1_5, t1_4)
	p = t1_6
	return rangered.CompensateLog2(p, k)
}

// genLog2RlibmEstrinFmaBlock applies the log2 rlibm-estrin-fma kernel to every element of b in place.
func genLog2RlibmEstrinFmaBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog2(0, k)
			continue
		}
		var p float64
		t2_0 := math.FMA(0x1.715476538bafbp+00, r, -0x1.a1e45e74c4bd8p-39)
		t2_1 := math.FMA(0x1.e9163f794ad3ap-02, r, -0x1.7153f164a980fp-01)
		t2_2 := math.FMA(-0x1.03c248ac35842p+06, r, 0x1.ebfe654496165p-02)
		t2_3 := r * r
		t2_4 := math.FMA(t2_1, t2_3, t2_0)
		t2_5 := t2_3 * t2_3
		t2_6 := math.FMA(t2_2, t2_5, t2_4)
		p = t2_6
		b[i] = rangered.CompensateLog2(p, k)
	}
}

// genLog2RlibmEstrinFmaBatch evaluates the log2 rlibm-estrin-fma kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog2RlibmEstrinFmaBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmEstrinFmaBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmEstrinFmaVecBlock applies the same kernel as genLog2RlibmEstrinFmaBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog2RlibmEstrinFmaBlock for every
// input and length.
func genLog2RlibmEstrinFmaVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			tv_0 := math.FMA(0x1.715476538bafbp+00, r, -0x1.a1e45e74c4bd8p-39)
			tv_1 := math.FMA(0x1.e9163f794ad3ap-02, r, -0x1.7153f164a980fp-01)
			tv_2 := math.FMA(-0x1.03c248ac35842p+06, r, 0x1.ebfe654496165p-02)
			tv_3 := r * r
			tv_4 := math.FMA(tv_1, tv_3, tv_0)
			tv_5 := tv_3 * tv_3
			tv_6 := math.FMA(tv_2, tv_5, tv_4)
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_6) & -m
			v[l] = rangered.CompensateLog2(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog2RlibmEstrinFma(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog2RlibmEstrinFmaBlock(b[n:])
	}
}

// genLog2RlibmEstrinFmaVecBatch is genLog2RlibmEstrinFmaBatch over the vector block kernel.
func genLog2RlibmEstrinFmaVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog2RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog2RlibmEstrinFmaAsmBatch is genLog2RlibmEstrinFmaVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog2RlibmEstrinFmaAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog2RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog10Rlibm is the generated log10 implementation with rlibm evaluation.
func genLog10Rlibm(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog10(0, k)
	}
	var p float64
	if r < 0x1.5765465465466p-09 {
		if r < 0x1.57e33c678cf1ap-10 {
			t3_0 := 0x1.6b1c5cd4afb58p+06 * r
			t3_1 := t3_0 + -0x1.f284600e7b4ecp-05
			t3_2 := t3_1 * r
			t3_3 := t3_2 + -0x1.bc71add63818cp-03
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.bcb7af6557023p-02
			t3_6 := t3_5 * r
			t3_7 := t3_6 + 0x1.abfce2144583dp-40
			p = t3_7
		} else {
			t3_0 := 0x1.9dd7eb70d239dp+05 * r
			t3_1 := t3_0 + -0x1.030d3b82b9a6p-02
			t3_2 := t3_1 * r
			t3_3 := t3_2 + -0x1.ba657e2de4a64p-03
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.bcb751d0ba81fp-02
			t3_6 := t3_5 * r
			t3_7 := t3_6 + 0x1.6da838bcf61c3p-31
			p = t3_7
		}
	} else {
		if r < 0x1.01578cbe9d5e3p-08 {
			t3_0 := 0x1.2232ecbfd7fc3p+01 * r
			t3_1 := t3_0 + 0x1.c1d9df45e404fp-04
			t3_2 := t3_1 * r
			t3_3 := t3_2 + -0x1.bc4d1d90b2756p-03
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.bcb78c65e9146p-02
			t3_6 := t3_5 * r
			t3_7 := t3_6 + 0x1.3d37b3ab4fda7p-31
			p = t3_7
		} else {
			t3_0 := -0x1.39a36914d9f9p+02 * r
			t3_1 := t3_0 + 0x1.04b69a8b37d31p-02
			t3_2 := t3_1 * r
			t3_3 := t3_2 + -0x1.bea070f87c7bep-03
			t3_4 := t3_3 * r
			t3_5 := t3_4 + 0x1.bcb89a2482d57p-02
			t3_6 := t3_5 * r
			t3_7 := t3_6 + -0x1.480a5d46bfe63p-28
			p = t3_7
		}
	}
	return rangered.CompensateLog10(p, k)
}

// genLog10RlibmBlock applies the log10 rlibm kernel to every element of b in place.
func genLog10RlibmBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog10(0, k)
			continue
		}
		var p float64
		if r < 0x1.5765465465466p-09 {
			if r < 0x1.57e33c678cf1ap-10 {
				t4_0 := 0x1.6b1c5cd4afb58p+06 * r
				t4_1 := t4_0 + -0x1.f284600e7b4ecp-05
				t4_2 := t4_1 * r
				t4_3 := t4_2 + -0x1.bc71add63818cp-03
				t4_4 := t4_3 * r
				t4_5 := t4_4 + 0x1.bcb7af6557023p-02
				t4_6 := t4_5 * r
				t4_7 := t4_6 + 0x1.abfce2144583dp-40
				p = t4_7
			} else {
				t4_0 := 0x1.9dd7eb70d239dp+05 * r
				t4_1 := t4_0 + -0x1.030d3b82b9a6p-02
				t4_2 := t4_1 * r
				t4_3 := t4_2 + -0x1.ba657e2de4a64p-03
				t4_4 := t4_3 * r
				t4_5 := t4_4 + 0x1.bcb751d0ba81fp-02
				t4_6 := t4_5 * r
				t4_7 := t4_6 + 0x1.6da838bcf61c3p-31
				p = t4_7
			}
		} else {
			if r < 0x1.01578cbe9d5e3p-08 {
				t4_0 := 0x1.2232ecbfd7fc3p+01 * r
				t4_1 := t4_0 + 0x1.c1d9df45e404fp-04
				t4_2 := t4_1 * r
				t4_3 := t4_2 + -0x1.bc4d1d90b2756p-03
				t4_4 := t4_3 * r
				t4_5 := t4_4 + 0x1.bcb78c65e9146p-02
				t4_6 := t4_5 * r
				t4_7 := t4_6 + 0x1.3d37b3ab4fda7p-31
				p = t4_7
			} else {
				t4_0 := -0x1.39a36914d9f9p+02 * r
				t4_1 := t4_0 + 0x1.04b69a8b37d31p-02
				t4_2 := t4_1 * r
				t4_3 := t4_2 + -0x1.bea070f87c7bep-03
				t4_4 := t4_3 * r
				t4_5 := t4_4 + 0x1.bcb89a2482d57p-02
				t4_6 := t4_5 * r
				t4_7 := t4_6 + -0x1.480a5d46bfe63p-28
				p = t4_7
			}
		}
		b[i] = rangered.CompensateLog10(p, k)
	}
}

// genLog10RlibmBatch evaluates the log10 rlibm kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog10RlibmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmVecTab holds the per-piece coefficient rows of genLog10RlibmVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLog10RlibmVecTab = [4][5]float64{
	{0x1.abfce2144583dp-40, 0x1.bcb7af6557023p-02, -0x1.bc71add63818cp-03, -0x1.f284600e7b4ecp-05, 0x1.6b1c5cd4afb58p+06},
	{0x1.6da838bcf61c3p-31, 0x1.bcb751d0ba81fp-02, -0x1.ba657e2de4a64p-03, -0x1.030d3b82b9a6p-02, 0x1.9dd7eb70d239dp+05},
	{0x1.3d37b3ab4fda7p-31, 0x1.bcb78c65e9146p-02, -0x1.bc4d1d90b2756p-03, 0x1.c1d9df45e404fp-04, 0x1.2232ecbfd7fc3p+01},
	{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02},
}

// genLog10RlibmVecBlock applies the same kernel as genLog10RlibmBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog10RlibmBlock for every
// input and length.
func genLog10RlibmVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57e33c678cf1ap-10)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.5765465465466p-09)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.01578cbe9d5e3p-08)) >> 63) ^ 1
			c := &genLog10RlibmVecTab[sel]
			tv_0 := c[4] * r
			tv_1 := tv_0 + c[3]
			tv_2 := tv_1 * r
			tv_3 := tv_2 + c[2]
			tv_4 := tv_3 * r
			tv_5 := tv_4 + c[1]
			tv_6 := tv_5 * r
			tv_7 := tv_6 + c[0]
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_7) & -m
			v[l] = rangered.CompensateLog10(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog10Rlibm(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog10RlibmBlock(b[n:])
	}
}

// genLog10RlibmVecBatch is genLog10RlibmBatch over the vector block kernel.
func genLog10RlibmVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmAsmBatch is genLog10RlibmVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog10RlibmAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog10RlibmVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog10RlibmKnuth is the generated log10 implementation with rlibm-knuth evaluation.
func genLog10RlibmKnuth(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog10(0, k)
	}
	var p float64
	if r < 0x1.5765465465466p-09 {
		if r < 0x1.57e33c678cf1ap-10 {
			t3_0 := r + -0x1.002beecd9367bp-01
			t3_1 := t3_0 * r
			t3_2 := t3_1 + 0x1.07851401c8939p-03
			t3_3 := t3_2 + r
			t3_4 := t3_3 + -0x1.3ef956498823p-07
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + -0x1.f57a698f46621p-07
			t3_7 := t3_6 * 0x1.6b1c2fd56e0eap+06
			p = t3_7
		} else {
			t3_0 := r + -0x1.01407e967e7b7p-01
			t3_1 := t3_0 * r
			t3_2 := t3_1 + 0x1.0e24796706f0ap-03
			t3_3 := t3_2 + r
			t3_4 := t3_3 + -0x1.26cb0fe590388p-06
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + -0x1.ec5cdfc092afep-07
			t3_7 := t3_6 * 0x1.9dd7fefa2405dp+05
			p = t3_7
		}
	} else {
		if r < 0x1.01578cbe9d5e3p-08 {
			t3_0 := r + -0x1.e73289988204bp-02
			t3_1 := t3_0 * r
			t3_2 := t3_1 + 0x1.0f0caf14b2422p-02
			t3_3 := t3_2 + r
			t3_4 := t3_3 + -0x1.80af9ffd92c8ep-02
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + 0x1.e14479cb820acp-06
			t3_7 := t3_6 * 0x1.22326154ae9bbp+01
			p = t3_7
		} else {
			t3_0 := r + -0x1.0d4cd19d8fd6cp-01
			t3_1 := t3_0 * r
			t3_2 := t3_1 + 0x1.0e06713dee4ffp-04
			t3_3 := t3_2 + r
			t3_4 := t3_3 + 0x1.4bbae3e8b3e95p-03
			t3_5 := t3_4 * t3_2
			t3_6 := t3_5 + -0x1.ec503eeb13357p-07
			t3_7 := t3_6 * -0x1.39a36914d9f9p+02
			p = t3_7
		}
	}
	return rangered.CompensateLog10(p, k)
}

// genLog10RlibmKnuthBlock applies the log10 rlibm-knuth kernel to every element of b in place.
func genLog10RlibmKnuthBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog10(0, k)
			continue
		}
		var p float64
		if r < 0x1.5765465465466p-09 {
			if r < 0x1.57e33c678cf1ap-10 {
				t4_0 := r + -0x1.002beecd9367bp-01
				t4_1 := t4_0 * r
				t4_2 := t4_1 + 0x1.07851401c8939p-03
				t4_3 := t4_2 + r
				t4_4 := t4_3 + -0x1.3ef956498823p-07
				t4_5 := t4_4 * t4_2
				t4_6 := t4_5 + -0x1.f57a698f46621p-07
				t4_7 := t4_6 * 0x1.6b1c2fd56e0eap+06
				p = t4_7
			} else {
				t4_0 := r + -0x1.01407e967e7b7p-01
				t4_1 := t4_0 * r
				t4_2 := t4_1 + 0x1.0e24796706f0ap-03
				t4_3 := t4_2 + r
				t4_4 := t4_3 + -0x1.26cb0fe590388p-06
				t4_5 := t4_4 * t4_2
				t4_6 := t4_5 + -0x1.ec5cdfc092afep-07
				t4_7 := t4_6 * 0x1.9dd7fefa2405dp+05
				p = t4_7
			}
		} else {
			if r < 0x1.01578cbe9d5e3p-08 {
				t4_0 := r + -0x1.e73289988204bp-02
				t4_1 := t4_0 * r
				t4_2 := t4_1 + 0x1.0f0caf14b2422p-02
				t4_3 := t4_2 + r
				t4_4 := t4_3 + -0x1.80af9ffd92c8ep-02
				t4_5 := t4_4 * t4_2
				t4_6 := t4_5 + 0x1.e14479cb820acp-06
				t4_7 := t4_6 * 0x1.22326154ae9bbp+01
				p = t4_7
			} else {
				t4_0 := r + -0x1.0d4cd19d8fd6cp-01
				t4_1 := t4_0 * r
				t4_2 := t4_1 + 0x1.0e06713dee4ffp-04
				t4_3 := t4_2 + r
				t4_4 := t4_3 + 0x1.4bbae3e8b3e95p-03
				t4_5 := t4_4 * t4_2
				t4_6 := t4_5 + -0x1.ec503eeb13357p-07
				t4_7 := t4_6 * -0x1.39a36914d9f9p+02
				p = t4_7
			}
		}
		b[i] = rangered.CompensateLog10(p, k)
	}
}

// genLog10RlibmKnuthBatch evaluates the log10 rlibm-knuth kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog10RlibmKnuthBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmKnuthBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmKnuthVecTab holds the per-piece coefficient rows of genLog10RlibmKnuthVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLog10RlibmKnuthVecTab = [4][5]float64{
	{-0x1.002beecd9367bp-01, 0x1.07851401c8939p-03, -0x1.3ef956498823p-07, -0x1.f57a698f46621p-07, 0x1.6b1c2fd56e0eap+06},
	{-0x1.01407e967e7b7p-01, 0x1.0e24796706f0ap-03, -0x1.26cb0fe590388p-06, -0x1.ec5cdfc092afep-07, 0x1.9dd7fefa2405dp+05},
	{-0x1.e73289988204bp-02, 0x1.0f0caf14b2422p-02, -0x1.80af9ffd92c8ep-02, 0x1.e14479cb820acp-06, 0x1.22326154ae9bbp+01},
	{-0x1.0d4cd19d8fd6cp-01, 0x1.0e06713dee4ffp-04, 0x1.4bbae3e8b3e95p-03, -0x1.ec503eeb13357p-07, -0x1.39a36914d9f9p+02},
}

// genLog10RlibmKnuthVecBlock applies the same kernel as genLog10RlibmKnuthBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog10RlibmKnuthBlock for every
// input and length.
func genLog10RlibmKnuthVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57e33c678cf1ap-10)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.5765465465466p-09)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.01578cbe9d5e3p-08)) >> 63) ^ 1
			c := &genLog10RlibmKnuthVecTab[sel]
			tv_0 := r + c[0]
			tv_1 := tv_0 * r
			tv_2 := tv_1 + c[1]
			tv_3 := tv_2 + r
			tv_4 := tv_3 + c[2]
			tv_5 := tv_4 * tv_2
			tv_6 := tv_5 + c[3]
			tv_7 := tv_6 * c[4]
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_7) & -m
			v[l] = rangered.CompensateLog10(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog10RlibmKnuth(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog10RlibmKnuthBlock(b[n:])
	}
}

// genLog10RlibmKnuthVecBatch is genLog10RlibmKnuthBatch over the vector block kernel.
func genLog10RlibmKnuthVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmKnuthAsmBatch is genLog10RlibmKnuthVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog10RlibmKnuthAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog10RlibmKnuthVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog10RlibmEstrin is the generated log10 implementation with rlibm-estrin evaluation.
func genLog10RlibmEstrin(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog10(0, k)
	}
	var p float64
	if r < 0x1.5765465465466p-09 {
		if r < 0x1.57e33c678cf1ap-10 {
			t3_0 := 0x1.bcb7af6557023p-02 * r
			t3_1 := 0x1.abfce2144583dp-40 + t3_0
			t3_2 := -0x1.f284600e7b4ecp-05 * r
			t3_3 := -0x1.bc71add63818cp-03 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := 0x1.6b1c5cd4afb58p+06 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		} else {
			t3_0 := 0x1.bcb751d0b96e4p-02 * r
			t3_1 := 0x1.6da83d45c343cp-31 + t3_0
			t3_2 := -0x1.030d3f455656dp-02 * r
			t3_3 := -0x1.ba657e27d3194p-03 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := 0x1.9dd7eee6d6f95p+05 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		}
	} else {
		if r < 0x1.01578cbe9d5e3p-08 {
			t3_0 := 0x1.bcb78c65e9146p-02 * r
			t3_1 := 0x1.3d37b3ab4fda7p-31 + t3_0
			t3_2 := 0x1.c1d9df45e404fp-04 * r
			t3_3 := -0x1.bc4d1d90b2756p-03 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := 0x1.2232ecbfd7fc3p+01 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		} else {
			t3_0 := 0x1.bcb89a2482d57p-02 * r
			t3_1 := -0x1.480a5d46bfe63p-28 + t3_0
			t3_2 := 0x1.04b69a8b37d31p-02 * r
			t3_3 := -0x1.bea070f87c7bep-03 + t3_2
			t3_4 := r * r
			t3_5 := t3_3 * t3_4
			t3_6 := t3_1 + t3_5
			t3_7 := t3_4 * t3_4
			t3_8 := -0x1.39a36914d9f9p+02 * t3_7
			t3_9 := t3_6 + t3_8
			p = t3_9
		}
	}
	return rangered.CompensateLog10(p, k)
}

// genLog10RlibmEstrinBlock applies the log10 rlibm-estrin kernel to every element of b in place.
func genLog10RlibmEstrinBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog10(0, k)
			continue
		}
		var p float64
		if r < 0x1.5765465465466p-09 {
			if r < 0x1.57e33c678cf1ap-10 {
				t4_0 := 0x1.bcb7af6557023p-02 * r
				t4_1 := 0x1.abfce2144583dp-40 + t4_0
				t4_2 := -0x1.f284600e7b4ecp-05 * r
				t4_3 := -0x1.bc71add63818cp-03 + t4_2
				t4_4 := r * r
				t4_5 := t4_3 * t4_4
				t4_6 := t4_1 + t4_5
				t4_7 := t4_4 * t4_4
				t4_8 := 0x1.6b1c5cd4afb58p+06 * t4_7
				t4_9 := t4_6 + t4_8
				p = t4_9
			} else {
				t4_0 := 0x1.bcb751d0b96e4p-02 * r
				t4_1 := 0x1.6da83d45c343cp-31 + t4_0
				t4_2 := -0x1.030d3f455656dp-02 * r
				t4_3 := -0x1.ba657e27d3194p-03 + t4_2
				t4_4 := r * r
				t4_5 := t4_3 * t4_4
				t4_6 := t4_1 + t4_5
				t4_7 := t4_4 * t4_4
				t4_8 := 0x1.9dd7eee6d6f95p+05 * t4_7
				t4_9 := t4_6 + t4_8
				p = t4_9
			}
		} else {
			if r < 0x1.01578cbe9d5e3p-08 {
				t4_0 := 0x1.bcb78c65e9146p-02 * r
				t4_1 := 0x1.3d37b3ab4fda7p-31 + t4_0
				t4_2 := 0x1.c1d9df45e404fp-04 * r
				t4_3 := -0x1.bc4d1d90b2756p-03 + t4_2
				t4_4 := r * r
				t4_5 := t4_3 * t4_4
				t4_6 := t4_1 + t4_5
				t4_7 := t4_4 * t4_4
				t4_8 := 0x1.2232ecbfd7fc3p+01 * t4_7
				t4_9 := t4_6 + t4_8
				p = t4_9
			} else {
				t4_0 := 0x1.bcb89a2482d57p-02 * r
				t4_1 := -0x1.480a5d46bfe63p-28 + t4_0
				t4_2 := 0x1.04b69a8b37d31p-02 * r
				t4_3 := -0x1.bea070f87c7bep-03 + t4_2
				t4_4 := r * r
				t4_5 := t4_3 * t4_4
				t4_6 := t4_1 + t4_5
				t4_7 := t4_4 * t4_4
				t4_8 := -0x1.39a36914d9f9p+02 * t4_7
				t4_9 := t4_6 + t4_8
				p = t4_9
			}
		}
		b[i] = rangered.CompensateLog10(p, k)
	}
}

// genLog10RlibmEstrinBatch evaluates the log10 rlibm-estrin kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog10RlibmEstrinBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmEstrinBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmEstrinVecTab holds the per-piece coefficient rows of genLog10RlibmEstrinVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLog10RlibmEstrinVecTab = [4][5]float64{
	{0x1.abfce2144583dp-40, 0x1.bcb7af6557023p-02, -0x1.bc71add63818cp-03, -0x1.f284600e7b4ecp-05, 0x1.6b1c5cd4afb58p+06},
	{0x1.6da83d45c343cp-31, 0x1.bcb751d0b96e4p-02, -0x1.ba657e27d3194p-03, -0x1.030d3f455656dp-02, 0x1.9dd7eee6d6f95p+05},
	{0x1.3d37b3ab4fda7p-31, 0x1.bcb78c65e9146p-02, -0x1.bc4d1d90b2756p-03, 0x1.c1d9df45e404fp-04, 0x1.2232ecbfd7fc3p+01},
	{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02},
}

// genLog10RlibmEstrinVecBlock applies the same kernel as genLog10RlibmEstrinBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog10RlibmEstrinBlock for every
// input and length.
func genLog10RlibmEstrinVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57e33c678cf1ap-10)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.5765465465466p-09)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.01578cbe9d5e3p-08)) >> 63) ^ 1
			c := &genLog10RlibmEstrinVecTab[sel]
			tv_0 := c[1] * r
			tv_1 := c[0] + tv_0
			tv_2 := c[3] * r
			tv_3 := c[2] + tv_2
			tv_4 := r * r
			tv_5 := tv_3 * tv_4
			tv_6 := tv_1 + tv_5
			tv_7 := tv_4 * tv_4
			tv_8 := c[4] * tv_7
			tv_9 := tv_6 + tv_8
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_9) & -m
			v[l] = rangered.CompensateLog10(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog10RlibmEstrin(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog10RlibmEstrinBlock(b[n:])
	}
}

// genLog10RlibmEstrinVecBatch is genLog10RlibmEstrinBatch over the vector block kernel.
func genLog10RlibmEstrinVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmEstrinAsmBatch is genLog10RlibmEstrinVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog10RlibmEstrinAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog10RlibmEstrinVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}

// genLog10RlibmEstrinFma is the generated log10 implementation with rlibm-estrin-fma evaluation.
func genLog10RlibmEstrinFma(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	r, k := rangered.ReduceLog(x)
	if r == 0 {
		return rangered.CompensateLog10(0, k)
	}
	var p float64
	if r < 0x1.5765465465466p-09 {
		if r < 0x1.57e33c678cf1ap-10 {
			t3_0 := math.FMA(0x1.bcb7af6557023p-02, r, 0x1.abfce2144583dp-40)
			t3_1 := math.FMA(-0x1.f284600e7b4ecp-05, r, -0x1.bc71add63818cp-03)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(0x1.6b1c5cd4afb58p+06, t3_4, t3_3)
			p = t3_5
		} else {
			t3_0 := math.FMA(0x1.bcb751d0baf44p-02, r, 0x1.6da836cd520e6p-31)
			t3_1 := math.FMA(-0x1.030d3a05548c2p-02, r, -0x1.ba657e30595bcp-03)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(0x1.9dd7ea181ebc1p+05, t3_4, t3_3)
			p = t3_5
		}
	} else {
		if r < 0x1.01578cbe9d5e3p-08 {
			t3_0 := math.FMA(0x1.bcb78c65e9146p-02, r, 0x1.3d37b3ab4fda7p-31)
			t3_1 := math.FMA(0x1.c1d9df45e404fp-04, r, -0x1.bc4d1d90b2756p-03)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(0x1.2232ecbfd7fc3p+01, t3_4, t3_3)
			p = t3_5
		} else {
			t3_0 := math.FMA(0x1.bcb89a2482d57p-02, r, -0x1.480a5d46bfe63p-28)
			t3_1 := math.FMA(0x1.04b69a8b37d31p-02, r, -0x1.bea070f87c7bep-03)
			t3_2 := r * r
			t3_3 := math.FMA(t3_1, t3_2, t3_0)
			t3_4 := t3_2 * t3_2
			t3_5 := math.FMA(-0x1.39a36914d9f9p+02, t3_4, t3_3)
			p = t3_5
		}
	}
	return rangered.CompensateLog10(p, k)
}

// genLog10RlibmEstrinFmaBlock applies the log10 rlibm-estrin-fma kernel to every element of b in place.
func genLog10RlibmEstrinFmaBlock(b []float64) {
	for i, x := range b {
		switch {
		case math.IsNaN(x):
			b[i] = x
			continue
		case x < 0 || math.IsInf(x, -1):
			b[i] = math.NaN()
			continue
		case x == 0:
			b[i] = math.Inf(-1)
			continue
		case math.IsInf(x, 1):
			b[i] = math.Inf(1)
			continue
		}
		r, k := rangered.ReduceLog(x)
		if r == 0 {
			b[i] = rangered.CompensateLog10(0, k)
			continue
		}
		var p float64
		if r < 0x1.5765465465466p-09 {
			if r < 0x1.57e33c678cf1ap-10 {
				t4_0 := math.FMA(0x1.bcb7af6557023p-02, r, 0x1.abfce2144583dp-40)
				t4_1 := math.FMA(-0x1.f284600e7b4ecp-05, r, -0x1.bc71add63818cp-03)
				t4_2 := r * r
				t4_3 := math.FMA(t4_1, t4_2, t4_0)
				t4_4 := t4_2 * t4_2
				t4_5 := math.FMA(0x1.6b1c5cd4afb58p+06, t4_4, t4_3)
				p = t4_5
			} else {
				t4_0 := math.FMA(0x1.bcb751d0baf44p-02, r, 0x1.6da836cd520e6p-31)
				t4_1 := math.FMA(-0x1.030d3a05548c2p-02, r, -0x1.ba657e30595bcp-03)
				t4_2 := r * r
				t4_3 := math.FMA(t4_1, t4_2, t4_0)
				t4_4 := t4_2 * t4_2
				t4_5 := math.FMA(0x1.9dd7ea181ebc1p+05, t4_4, t4_3)
				p = t4_5
			}
		} else {
			if r < 0x1.01578cbe9d5e3p-08 {
				t4_0 := math.FMA(0x1.bcb78c65e9146p-02, r, 0x1.3d37b3ab4fda7p-31)
				t4_1 := math.FMA(0x1.c1d9df45e404fp-04, r, -0x1.bc4d1d90b2756p-03)
				t4_2 := r * r
				t4_3 := math.FMA(t4_1, t4_2, t4_0)
				t4_4 := t4_2 * t4_2
				t4_5 := math.FMA(0x1.2232ecbfd7fc3p+01, t4_4, t4_3)
				p = t4_5
			} else {
				t4_0 := math.FMA(0x1.bcb89a2482d57p-02, r, -0x1.480a5d46bfe63p-28)
				t4_1 := math.FMA(0x1.04b69a8b37d31p-02, r, -0x1.bea070f87c7bep-03)
				t4_2 := r * r
				t4_3 := math.FMA(t4_1, t4_2, t4_0)
				t4_4 := t4_2 * t4_2
				t4_5 := math.FMA(-0x1.39a36914d9f9p+02, t4_4, t4_3)
				p = t4_5
			}
		}
		b[i] = rangered.CompensateLog10(p, k)
	}
}

// genLog10RlibmEstrinFmaBatch evaluates the log10 rlibm-estrin-fma kernel over src into dst, one on-stack
// float64 block at a time; see GeneratedBatchFuncs for the contract.
func genLog10RlibmEstrinFmaBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmEstrinFmaBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmEstrinFmaVecTab holds the per-piece coefficient rows of genLog10RlibmEstrinFmaVecBlock, selected
// branch-free by sign-bit counting against the piece bounds.
var genLog10RlibmEstrinFmaVecTab = [4][5]float64{
	{0x1.abfce2144583dp-40, 0x1.bcb7af6557023p-02, -0x1.bc71add63818cp-03, -0x1.f284600e7b4ecp-05, 0x1.6b1c5cd4afb58p+06},
	{0x1.6da836cd520e6p-31, 0x1.bcb751d0baf44p-02, -0x1.ba657e30595bcp-03, -0x1.030d3a05548c2p-02, 0x1.9dd7ea181ebc1p+05},
	{0x1.3d37b3ab4fda7p-31, 0x1.bcb78c65e9146p-02, -0x1.bc4d1d90b2756p-03, 0x1.c1d9df45e404fp-04, 0x1.2232ecbfd7fc3p+01},
	{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02},
}

// genLog10RlibmEstrinFmaVecBlock applies the same kernel as genLog10RlibmEstrinFmaBlock to every element of b
// in 8-lane groups: struct-of-arrays range reduction, then a branch-free
// polynomial loop (bit-select masks instead of the special switch and piece
// dispatch). Lanes holding special inputs are recomputed with the scalar
// kernel afterwards, and the sub-group tail runs the scalar-body block
// kernel, so outputs are bit-identical to genLog10RlibmEstrinFmaBlock for every
// input and length.
func genLog10RlibmEstrinFmaVecBlock(b []float64) {
	n := len(b) &^ (generatedVecLanes - 1)
	for base := 0; base < n; base += generatedVecLanes {
		v := (*[generatedVecLanes]float64)(b[base:])
		var vr, vx [generatedVecLanes]float64
		var vq, vj [generatedVecLanes]int32
		var sl [generatedVecLanes]bool
		slow := false
		for l := 0; l < generatedVecLanes; l++ {
			x := v[l]
			vx[l] = x
			r, k := rangered.ReduceLog(x)
			vr[l] = r
			vq[l], vj[l] = k.Q, k.J
			if bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {
				sl[l], slow = true, true
			}
		}
		for l := 0; l < generatedVecLanes; l++ {
			r := vr[l]
			sel := (math.Float64bits(r-(0x1.57e33c678cf1ap-10)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.5765465465466p-09)) >> 63) ^ 1
			sel += (math.Float64bits(r-(0x1.01578cbe9d5e3p-08)) >> 63) ^ 1
			c := &genLog10RlibmEstrinFmaVecTab[sel]
			tv_0 := math.FMA(c[1], r, c[0])
			tv_1 := math.FMA(c[3], r, c[2])
			tv_2 := r * r
			tv_3 := math.FMA(tv_1, tv_2, tv_0)
			tv_4 := tv_2 * tv_2
			tv_5 := math.FMA(c[4], tv_4, tv_3)
			z := math.Float64bits(r) << 1
			m := (z | -z) >> 63
			pb := math.Float64bits(tv_5) & -m
			v[l] = rangered.CompensateLog10(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})
		}
		if slow {
			for l := 0; l < generatedVecLanes; l++ {
				if sl[l] {
					v[l] = genLog10RlibmEstrinFma(vx[l])
				}
			}
		}
	}
	if n != len(b) {
		genLog10RlibmEstrinFmaBlock(b[n:])
	}
}

// genLog10RlibmEstrinFmaVecBatch is genLog10RlibmEstrinFmaBatch over the vector block kernel.
func genLog10RlibmEstrinFmaVecBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		for i := range b {
			b[i] = float64(sb[i])
		}
		genLog10RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		for i := range db {
			db[i] = float32(b[i])
		}
	}
}

// genLog10RlibmEstrinFmaAsmBatch is genLog10RlibmEstrinFmaVecBatch with the float32 conversion staging run
// through the assembly widen/narrow helpers where available.
func genLog10RlibmEstrinFmaAsmBatch(dst, src []float32) {
	_ = dst[:len(src)]
	var buf [generatedBatchBlock]float64
	for base := 0; base < len(src); base += generatedBatchBlock {
		n := len(src) - base
		if n > generatedBatchBlock {
			n = generatedBatchBlock
		}
		b := buf[:n]
		sb := src[base : base+n]
		widenF32(b, sb)
		genLog10RlibmEstrinFmaVecBlock(b)
		db := dst[base : base+n]
		narrowF32(db, b)
	}
}
