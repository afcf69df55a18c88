package libm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
)

// sameResult compares two results bit for bit, any NaN matching any NaN.
func sameResult(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestRoundNarrowMatchesFormatRound: roundNarrow at each precision is
// bit-identical to the fp.Format.Round reference on random doubles and on
// every structured edge — window boundaries, carries out of the top binade,
// subnormal results, zeros, infinities, NaN.
func TestRoundNarrowMatchesFormatRound(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, -1, 0x1.ffp127, -0x1.ffp127, 0x1.fffffep127, math.MaxFloat64,
		0x1p-126, 0x1p-127, 0x1p-149, 5e-324, 1e-300, -1e-300,
		0x1.fffffffffffffp127,  // carries to exactly 2^128 at any narrow precision
		-0x1.fffffffffffffp127, // and the negative mirror
		0x1.008p0, 0x1.018p0,   // RNE ties at bf16 granularity (even/odd lsb)
		0x1.0008p0, 0x1.0018p0, // and at tf32 granularity
	}
	// Biased-exponent window boundaries of the fast path, one binade to
	// either side.
	for _, e := range []int{-128, -127, -126, -125, 126, 127} {
		edges = append(edges, math.Ldexp(1.5, e), math.Ldexp(-1.75, e))
	}
	rng := rand.New(rand.NewSource(4517))
	for _, ps := range PrecSpecs {
		inputs := append([]float64(nil), edges...)
		for i := 0; i < 500000; i++ {
			inputs = append(inputs, math.Float64frombits(rng.Uint64()))
		}
		// Concentrate on the representable range, where the fast path runs.
		for i := 0; i < 500000; i++ {
			inputs = append(inputs, math.Ldexp(1+rng.Float64(), rng.Intn(260)-130)*float64(1-2*rng.Intn(2)))
		}
		for _, d := range inputs {
			if got, want := roundNarrow(d, ps.shift(), ps.Out), ps.Out.Round(d, fp.RNE); !sameResult(got, want) {
				t.Fatalf("%s Round(%x=%g) = %x, fp.Round = %x",
					ps.Name, math.Float64bits(d), d, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestRoundNarrowFastExits: the exits below the normal range and at the
// special values — zeros, infinities and NaNs returned as they are,
// magnitudes below half the smallest subnormal to a signed zero — agree
// with fp.Format.Round at every
// power of two from 2^-1074 to 2^-120 (the whole underflow side, both
// signs, and the values a hair either side of each) and on a seeded sample
// of tiny magnitudes. NaNs keep their payload.
func TestRoundNarrowFastExits(t *testing.T) {
	inputs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for e := -1074; e <= -120; e++ {
		p := math.Ldexp(1, e)
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1), 1.5 * p} {
			inputs = append(inputs, v, -v)
		}
	}
	rng := rand.New(rand.NewSource(1074))
	for i := 0; i < 100000; i++ {
		v := math.Ldexp(1+rng.Float64(), -rng.Intn(1100))
		inputs = append(inputs, v, -v)
	}
	for _, ps := range PrecSpecs {
		for _, d := range inputs {
			if got, want := roundNarrow(d, ps.shift(), ps.Out), ps.Out.Round(d, fp.RNE); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s Round(%x=%g) = %x, fp.Round = %x",
					ps.Name, math.Float64bits(d), d, math.Float64bits(got), math.Float64bits(want))
			}
		}
		for _, nan := range []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001} {
			if got := roundNarrow(math.Float64frombits(nan), ps.shift(), ps.Out); math.Float64bits(got) != nan {
				t.Errorf("%s Round(NaN %#x) = %#x, want it unchanged", ps.Name, nan, math.Float64bits(got))
			}
		}
	}
}

// checkNarrow compares every scheme's narrow kernel at x with the oracle's
// value rounded to each precision; it returns the number of wrong results.
func checkNarrow(t *testing.T, f string, val *oracle.Value, x float64, specs []PrecSpec) int {
	t.Helper()
	wrong := 0
	for _, ps := range specs {
		want := val.Round(ps.Out, fp.RNE)
		for _, s := range Schemes {
			got := roundNarrow(GeneratedFuncs[f+"/"+s.String()](x), ps.shift(), ps.Out)
			if !sameResult(got, want) {
				wrong++
				if wrong <= 3 {
					t.Errorf("%s/%v/%s(%g = %#08x) = %g, oracle %g",
						f, s, ps.Name, x, math.Float32bits(float32(x)), got, want)
				}
			}
		}
	}
	return wrong
}

// TestNarrowExhaustiveOracle: every narrow result on the narrow formats'
// own grids is the correctly rounded value — all 2^19 tf32 patterns at
// tf32 and the 2^16 bf16 patterns among them at bf16 as well, for all 24
// (function, scheme) kernels, with one oracle value per input. Zero
// tolerance.
func TestNarrowExhaustiveOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep; skipped with -short")
	}
	tf32, _ := PrecSpecByName("tf32")
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		wrong := 0
		var val oracle.Value
		for b := uint32(0); b < 1<<19; b++ {
			bits := b << 13
			x := float64(math.Float32frombits(bits))
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || (ofn.IsLog() && x < 0) {
				continue
			}
			val.Reset(ofn, x)
			specs := PrecSpecs
			if bits&0xffff != 0 {
				specs = []PrecSpec{tf32}
			}
			wrong += checkNarrow(t, f.Name, &val, x, specs)
			if wrong >= 10 {
				break
			}
		}
		if wrong > 0 {
			t.Fatalf("%s: %d on-grid narrow results wrong", f.Name, wrong)
		}
	}
}

// TestNarrowOffGridOracle: narrow results are correctly rounded for float32
// inputs the narrow format cannot represent — the traffic a narrow-precision
// caller actually sends. A seeded sample per function, one oracle value per
// input rounded to both formats. The first input is the logarithm input
// whose bf16 result the truncated prefix polynomials once got wrong.
func TestNarrowOffGridOracle(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	rng := rand.New(rand.NewSource(26))
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		wrong := 0
		var val oracle.Value
		inputs := []float32{math.Float32frombits(0x3f838611)}
		for len(inputs) < n {
			x := randInput(rng, f.Name)
			if math.Float32bits(x)&0x1fff == 0 {
				continue // on the tf32 grid
			}
			inputs = append(inputs, x)
		}
		for _, x := range inputs {
			fx := float64(x)
			if math.IsNaN(fx) || math.IsInf(fx, 0) || (ofn.IsLog() && fx < 0) {
				continue
			}
			val.Reset(ofn, fx)
			wrong += checkNarrow(t, f.Name, &val, fx, PrecSpecs)
		}
		if wrong > 0 {
			t.Fatalf("%s: %d off-grid narrow results wrong", f.Name, wrong)
		}
	}
}

// TestNarrowBatchBitIdentity: every precision's batch over every backend's
// block kernel (scalar-body, vector, vector behind the assembly staging) is
// bit-identical to the scalar narrow kernel per element, at lengths covering
// the empty input, sub-group tails, whole staging blocks and multi-block
// inputs mixing specials, plateaus and ordinary values.
func TestNarrowBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for key, full := range GeneratedFuncs {
		name, _, _ := strings.Cut(key, "/")
		for _, ps := range PrecSpecs {
			scalar := ps.Kernel(full)
			batches := map[string]func(dst, src []float32){
				"block": ps.Batch(GeneratedBlockFuncs[key], false),
				"vec":   ps.Batch(GeneratedVecBlockFuncs[key], false),
				"asm":   ps.Batch(GeneratedVecBlockFuncs[key], true),
			}
			for _, n := range []int{0, 1, 7, 255, 256, 257, 1000} {
				src := make([]float32, n)
				for i, x := range vecProbes(rng, name, n) {
					src[i] = float32(x)
				}
				dst := make([]float32, n)
				for bname, batch := range batches {
					batch(dst, src)
					for i, x := range src {
						want := float32(scalar(float64(x)))
						if math.Float32bits(dst[i]) != math.Float32bits(want) &&
							!(math.IsNaN(float64(dst[i])) && math.IsNaN(float64(want))) {
							t.Fatalf("%s/%s %s batch(%#08x) = %#08x, scalar %#08x", key, ps.Name, bname,
								math.Float32bits(x), math.Float32bits(dst[i]), math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}
