package libm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// vecBlockPairs enumerates every (vector block, scalar-body block) pair.
func vecBlockPairs(t *testing.T) map[string][2]func([]float64) {
	t.Helper()
	pairs := make(map[string][2]func([]float64))
	if len(GeneratedVecBlockFuncs) != len(GeneratedBlockFuncs) {
		t.Fatalf("%d vector block kernels vs %d scalar-body block kernels",
			len(GeneratedVecBlockFuncs), len(GeneratedBlockFuncs))
	}
	for key, vec := range GeneratedVecBlockFuncs {
		blk := GeneratedBlockFuncs[key]
		if blk == nil {
			t.Fatalf("vector kernel %q has no block counterpart", key)
		}
		pairs[key] = [2]func([]float64){vec, blk}
	}
	return pairs
}

// vecProbes builds an adversarial input block for one function: random domain
// sweeps salted with IEEE specials, plateau edges, exact special-table inputs
// (exp10's integer decades), structural-zero inputs (r == 0 on the fast
// path), and values straddling the piecewise bounds — so every lane-group
// shape occurs: all-fast, all-slow, and mixed groups at every lane position.
func vecProbes(rng *rand.Rand, name string, n int) []float64 {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		-150, 128, 1e-40, -1e-40, -1,
		// exp10 special-table inputs; ordinary values for the others.
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
		// Exact powers 2^e*(1+j/128): reduce to r == 0 on the log fast path.
		1.5, 0.75, 3, 96, 0x1p-100,
	}
	src := make([]float64, n)
	for i := range src {
		switch i % 16 {
		case 5:
			src[i] = specials[rng.Intn(len(specials))]
		case 11:
			// Near the piecewise boundary (around 0 after reduction).
			src[i] = (rng.Float64() - 0.5) * 0x1p-24
		default:
			src[i] = float64(randInput(rng, name))
		}
	}
	return src
}

// TestGeneratedVecBlockFuncsMatchScalar: every vector block kernel is
// bit-identical to its scalar-body block
// kernel (and hence to the scalar kernel) on every element, across lengths
// covering empty input, sub-group tails, exact group multiples and long
// mixed blocks.
func TestGeneratedVecBlockFuncsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for key, pair := range vecBlockPairs(t) {
		vec, blk := pair[0], pair[1]
		name, _, _ := strings.Cut(key, "/")
		for _, n := range []int{0, 1, 7, 8, 9, 16, 255, 256, 2000} {
			src := vecProbes(rng, name, n)
			got := append([]float64(nil), src...)
			want := append([]float64(nil), src...)
			vec(got)
			blk(want)
			for i := range src {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
					!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%s vec(%x=%g) = %x, block = %x",
						key, math.Float64bits(src[i]), src[i],
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestGeneratedVecBatchFuncsMatchBatch: the VecBatch and AsmBatch forms are
// bit-identical to the Batch form for every kernel, at lengths
// covering the conversion staging's 4-wide body, its scalar tail, and
// multi-block inputs.
func TestGeneratedVecBatchFuncsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(414))
	type trio struct {
		batch, vec, asm func(dst, src []float32)
		name            string
	}
	var trios []trio
	for key, b := range GeneratedBatchFuncs {
		name, _, _ := strings.Cut(key, "/")
		trios = append(trios, trio{b, GeneratedVecBatchFuncs[key], GeneratedAsmBatchFuncs[key], name})
	}
	for _, tr := range trios {
		if tr.vec == nil || tr.asm == nil {
			t.Fatal("batch kernel missing a vector or asm-staged form")
		}
		for _, n := range []int{0, 1, 3, 4, 5, 8, 255, 256, 257, 1000} {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(vecProbes(rng, tr.name, 1)[0])
			}
			want := make([]float32, n)
			gotVec := make([]float32, n)
			gotAsm := make([]float32, n)
			tr.batch(want, src)
			tr.vec(gotVec, src)
			tr.asm(gotAsm, src)
			for i := range src {
				wb := math.Float32bits(want[i])
				if vb := math.Float32bits(gotVec[i]); vb != wb {
					t.Fatalf("%s n=%d [%d] x=%x: vec batch %x, batch %x", tr.name, n, i, math.Float32bits(src[i]), vb, wb)
				}
				if ab := math.Float32bits(gotAsm[i]); ab != wb {
					t.Fatalf("%s n=%d [%d] x=%x: asm batch %x, batch %x", tr.name, n, i, math.Float32bits(src[i]), ab, wb)
				}
			}
		}
	}
}

// TestExhaustiveBf16BackendEquivalence: for every kernel, the bfloat16
// batch over each backend's block kernel agrees bit-for-bit with the scalar
// bfloat16 kernel over every one of the 2^16 bfloat16 bit patterns — an
// exhaustive proof that backend selection can never change a served bf16
// result.
func TestExhaustiveBf16BackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	bf16, _ := PrecSpecByName("bf16")
	src := make([]float32, 1<<16)
	for i := range src {
		src[i] = math.Float32frombits(uint32(i) << 16)
	}
	want := make([]float32, len(src))
	got := make([]float32, len(src))
	for key, full := range GeneratedFuncs {
		scalar := bf16.Kernel(full)
		for i, x := range src {
			want[i] = float32(scalar(float64(x)))
		}
		for name, batch := range map[string]func(dst, src []float32){
			"block": bf16.Batch(GeneratedBlockFuncs[key], false),
			"vec":   bf16.Batch(GeneratedVecBlockFuncs[key], false),
			"asm":   bf16.Batch(GeneratedVecBlockFuncs[key], true),
		} {
			batch(got, src)
			for i := range src {
				if a, b := math.Float32bits(got[i]), math.Float32bits(want[i]); a != b {
					t.Fatalf("%s %s batch(%#08x): %#08x, scalar %#08x", key, name, math.Float32bits(src[i]), a, b)
				}
			}
		}
	}
}
