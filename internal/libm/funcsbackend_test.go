package libm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestGeneratedFuncsMatchDataBackend: the straight-line function backend is
// bit-identical to the data-driven backend on every path — special values,
// plateaus, special tables, structural zeros and the polynomial pieces.
func TestGeneratedFuncsMatchDataBackend(t *testing.T) {
	if len(GeneratedFuncs) != 24 {
		t.Fatalf("expected 24 generated functions, have %d", len(GeneratedFuncs))
	}
	rng := rand.New(rand.NewSource(121))
	for key, gen := range GeneratedFuncs {
		name, schemeName, _ := strings.Cut(key, "/")
		var scheme Scheme
		found := false
		for _, s := range Schemes {
			if s.String() == schemeName {
				scheme, found = s, true
				break
			}
		}
		if !found {
			t.Fatalf("unknown scheme in key %q", key)
		}
		var double func(float32, Scheme) float64
		for _, f := range Funcs {
			if f.Name == name {
				double = f.Double
				break
			}
		}
		if double == nil {
			t.Fatalf("unknown function in key %q", key)
		}
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
			want := double(float32(x), scheme)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s(%x=%g): straight-line %x, data backend %x",
					key, math.Float64bits(x), x, math.Float64bits(got), math.Float64bits(want))
			}
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
