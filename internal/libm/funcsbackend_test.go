package libm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestGeneratedFuncsMatchDataBackend: every shipped straight-line kernel
// is bit-identical to the reference interpreter running the table it was
// emitted from, on every path — special values, plateaus, special tables,
// structural zeros and the polynomial pieces.
func TestGeneratedFuncsMatchDataBackend(t *testing.T) {
	if len(GeneratedFuncs) != 24 {
		t.Fatalf("expected 24 generated functions, have %d", len(GeneratedFuncs))
	}
	rng := rand.New(rand.NewSource(121))
	for _, name := range FuncNames {
		for _, s := range Schemes {
			key := name + "/" + s.String()
			gen := GeneratedFuncs[key]
			if gen == nil {
				t.Fatalf("no generated kernel %q", key)
			}
			testMatchesReference(t, rng, key, gen, reference(generatedFunc(name), s))
		}
	}
}

// testMatchesReference checks gen against ref on edge inputs and a random
// sweep over key's function domain.
func testMatchesReference(t *testing.T, rng *rand.Rand, key string, gen, ref func(float64) float64) {
	name, _, _ := strings.Cut(key, "/")
	// Edge inputs plus a random sweep.
	inputs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 0.5, 2, 3, 100, -104, 89, -150, 128, 1e-40, -1e-40,
	}
	for i := 0; i < 20000; i++ {
		inputs = append(inputs, float64(randInput(rng, name)))
	}
	for _, raw := range inputs {
		// Both backends must see the same value: the public API takes
		// float32, so quantize the probe first.
		x := float64(float32(raw))
		got := gen(x)
		want := ref(x)
		if math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s(%x=%g): straight-line %x, reference %x",
				key, math.Float64bits(x), x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestGeneratedBlockFuncsMatchScalar: every block kernel is bit-identical to
// its scalar counterpart on every element, for blocks that mix specials,
// plateau values and ordinary inputs, at several lengths (including empty).
func TestGeneratedBlockFuncsMatchScalar(t *testing.T) {
	if len(GeneratedBlockFuncs) != len(GeneratedFuncs) {
		t.Fatalf("%d block kernels vs %d scalar kernels", len(GeneratedBlockFuncs), len(GeneratedFuncs))
	}
	rng := rand.New(rand.NewSource(212))
	for key, blk := range GeneratedBlockFuncs {
		scalar := GeneratedFuncs[key]
		if scalar == nil {
			t.Fatalf("block kernel %q has no scalar counterpart", key)
		}
		name, _, _ := strings.Cut(key, "/")
		for _, n := range []int{0, 1, 7, 1000} {
			src := make([]float64, n)
			for i := range src {
				switch i % 9 {
				case 7:
					src[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[i%5]
				case 8:
					src[i] = []float64{-150, 128, 1e-40, -1, 1}[i%5]
				default:
					src[i] = float64(randInput(rng, name))
				}
			}
			got := append([]float64(nil), src...)
			blk(got)
			for i, x := range src {
				want := scalar(x)
				if math.Float64bits(got[i]) != math.Float64bits(want) &&
					!(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("%s block(%x=%g) = %x, scalar = %x",
						key, math.Float64bits(x), x, math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	}
}
