package libm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
)

// splitPrefixKey splits "func/scheme/prec" into its components.
func splitPrefixKey(t *testing.T, key string) (fn string, s Scheme, ps PrecSpec) {
	t.Helper()
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		t.Fatalf("malformed prefix key %q", key)
	}
	fn = parts[0]
	found := false
	for _, sc := range Schemes {
		if sc.String() == parts[1] {
			s, found = sc, true
		}
	}
	if !found {
		t.Fatalf("unknown scheme in key %q", key)
	}
	ps, ok := PrecSpecByName(parts[2])
	if !ok {
		t.Fatalf("unknown precision in key %q", key)
	}
	return fn, s, ps
}

// TestRoundNarrowMatchesFormatRound: the integer fast path of roundBf16 and
// roundTf32 is bit-identical to the fp.Format.Round reference on random
// doubles and on every structured edge — window boundaries, carries out of
// the top binade, subnormal results, zeros, infinities, NaN.
func TestRoundNarrowMatchesFormatRound(t *testing.T) {
	rounders := []struct {
		name string
		f    func(float64) float64
		fmt  fp.Format
	}{
		{"bf16", roundBf16, fp.Bfloat16},
		{"tf32", roundTf32, fp.TensorFloat32},
	}
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
	for _, r := range rounders {
		inputs := append([]float64(nil), edges...)
		for i := 0; i < 500000; i++ {
			inputs = append(inputs, math.Float64frombits(rng.Uint64()))
		}
		// Concentrate on the representable range, where the fast path runs.
		for i := 0; i < 500000; i++ {
			inputs = append(inputs, math.Ldexp(1+rng.Float64(), rng.Intn(260)-130)*float64(1-2*rng.Intn(2)))
		}
		for _, d := range inputs {
			got := r.f(d)
			want := r.fmt.Round(d, fp.RNE)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("round%s(%x=%g) = %x, fp.Round = %x",
					r.name, math.Float64bits(d), d, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestPrefixKernelsMatchFullRounded: for every prefix kernel and every input
// of its output format, the prefix result equals the full kernel's double
// rounded to the output format — the bit-level contract the emitter verified
// when it chose the prefix degree. (The full kernel's double lies in the
// exact result's 34-bit round-to-odd interval, so agreement here plus the
// oracle battery below is the RLibm-ALL argument at 18/21 bits.)
//
// bf16 kernels sweep all bfloat16 inputs. tf32 kernels sweep the 14-bit
// slice always and the full 2^19 tf32 grid without -short.
func TestPrefixKernelsMatchFullRounded(t *testing.T) {
	if len(GeneratedPrefixFuncs) != 48 {
		t.Fatalf("expected 48 prefix kernels (24 impls x 2 precisions), have %d", len(GeneratedPrefixFuncs))
	}
	for key, prefix := range GeneratedPrefixFuncs {
		fn, s, ps := splitPrefixKey(t, key)
		fam, err := famFor(fn)
		if err != nil {
			t.Fatal(err)
		}
		fd := shippedData(t, fn)
		grid := ps.Out
		if ps.Name == "tf32" && testing.Short() {
			grid = fp.Format{Bits: 14, ExpBits: 8}
		}
		wrong := 0
		grid.FiniteValues(func(_ uint64, v float64) bool {
			got := prefix(v)
			want := ps.Out.Round(fullKernelDouble(&fam, fd, s, v), fp.RNE)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				wrong++
				if wrong <= 3 {
					t.Errorf("%s(%x=%g) = %x, full rounded = %x",
						key, math.Float64bits(v), v, math.Float64bits(got), math.Float64bits(want))
				}
			}
			return wrong < 10
		})
		if wrong > 0 {
			t.Fatalf("%s: %d mismatches against the rounded full kernel", key, wrong)
		}
	}
}

// TestPrefixExhaustiveOracle: the end-to-end correctness battery — every
// prefix kernel result is the correctly rounded value of its output format
// per the oracle. bfloat16 kernels are checked over all bfloat16 inputs;
// tf32 kernels over the 14-bit slice (every 14-bit value is tf32- and
// float32-representable). Zero tolerance: the prefix kernels were verified
// exhaustively at emit time, so any mismatch is a generator bug.
func TestPrefixExhaustiveOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep; skipped with -short")
	}
	for _, ps := range PrecSpecs {
		grid := ps.Out
		if ps.Name == "tf32" {
			grid = fp.Format{Bits: 14, ExpBits: 8}
		}
		for _, f := range Funcs {
			ofn := fnOracle[f.Name]
			wrong, checked := 0, 0
			grid.FiniteValues(func(_ uint64, v float64) bool {
				if v == 0 || (ofn.IsLog() && v <= 0) {
					return true
				}
				want := oracle.Compute(ofn, v).Round(ps.Out, fp.RNE)
				for _, s := range Schemes {
					key := f.Name + "/" + s.String() + "/" + ps.Name
					got := GeneratedPrefixFuncs[key](v)
					checked++
					if math.Float64bits(got) != math.Float64bits(want) &&
						!(math.IsNaN(got) && math.IsNaN(want)) {
						wrong++
						if wrong <= 3 {
							t.Errorf("%s(%g) = %g, oracle %g", key, v, got, want)
						}
					}
				}
				return wrong < 10
			})
			if wrong > 0 {
				t.Fatalf("%s/%s: %d of %d prefix results wrong", f.Name, ps.Name, wrong, checked)
			}
		}
	}
}

// TestPrefixBlockBatchBitIdentity: the block and float32 batch forms of every
// prefix kernel are bit-identical to the scalar form per element, on blocks
// mixing specials, plateau inputs and ordinary values.
func TestPrefixBlockBatchBitIdentity(t *testing.T) {
	if len(GeneratedPrefixBlockFuncs) != len(GeneratedPrefixFuncs) ||
		len(GeneratedPrefixBatchFuncs) != len(GeneratedPrefixFuncs) {
		t.Fatalf("%d block / %d batch prefix kernels vs %d scalar",
			len(GeneratedPrefixBlockFuncs), len(GeneratedPrefixBatchFuncs), len(GeneratedPrefixFuncs))
	}
	rng := rand.New(rand.NewSource(97))
	for key, scalar := range GeneratedPrefixFuncs {
		fn, _, _ := splitPrefixKey(t, key)
		blk, bat := GeneratedPrefixBlockFuncs[key], GeneratedPrefixBatchFuncs[key]
		for _, n := range []int{0, 1, 7, 1000} {
			src := make([]float64, n)
			for i := range src {
				switch i % 9 {
				case 7:
					src[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[i%5]
				case 8:
					src[i] = []float64{-150, 128, 1e-40, -1, 1}[i%5]
				default:
					src[i] = float64(randInput(rng, fn))
				}
			}
			got := append([]float64(nil), src...)
			blk(got)
			src32 := make([]float32, n)
			for i, x := range src {
				src32[i] = float32(x)
			}
			got32 := make([]float32, n)
			bat(got32, src32)
			for i, x := range src {
				want := scalar(x)
				if math.Float64bits(got[i]) != math.Float64bits(want) &&
					!(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("%s block(%g) = %x, scalar = %x", key, x, math.Float64bits(got[i]), math.Float64bits(want))
				}
				want32 := float32(scalar(float64(src32[i])))
				if math.Float32bits(got32[i]) != math.Float32bits(want32) &&
					!(math.IsNaN(float64(got32[i])) && math.IsNaN(float64(want32))) {
					t.Fatalf("%s batch(%g) = %x, scalar = %x", key, src32[i], math.Float32bits(got32[i]), math.Float32bits(want32))
				}
			}
		}
	}
}

// TestPrefixDegreesProgressive: the recorded prefix degrees are genuine
// prefixes — at least degree 1, no deeper than the full polynomial, and
// monotone in precision (the bf16 prefix never needs more terms than tf32's).
// The full tables themselves are untouched by prefix emission; the batch
// average prefix degree must be strictly below the full average, or the
// progressive path buys nothing.
func TestPrefixDegreesProgressive(t *testing.T) {
	if len(GeneratedPrefixDegrees) != 48 {
		t.Fatalf("expected 48 recorded prefix degrees, have %d", len(GeneratedPrefixDegrees))
	}
	sumFull, sumPrefix := 0, 0
	for key, deg := range GeneratedPrefixDegrees {
		fn, s, _ := splitPrefixKey(t, key)
		impl := &shippedData(t, fn).impls[s]
		fullDeg := 0
		for _, p := range impl.pieces {
			if d := len(p.coeffs) - 1; d > fullDeg {
				fullDeg = d
			}
		}
		if deg < 1 || deg > fullDeg {
			t.Errorf("%s: prefix degree %d outside [1, %d]", key, deg, fullDeg)
		}
		sumFull += fullDeg
		sumPrefix += deg
	}
	for _, f := range Funcs {
		for _, s := range Schemes {
			base := f.Name + "/" + s.String() + "/"
			if GeneratedPrefixDegrees[base+"bf16"] > GeneratedPrefixDegrees[base+"tf32"] {
				t.Errorf("%s: bf16 prefix degree %d exceeds tf32's %d",
					base, GeneratedPrefixDegrees[base+"bf16"], GeneratedPrefixDegrees[base+"tf32"])
			}
		}
	}
	if sumPrefix >= sumFull {
		t.Errorf("prefix degrees sum to %d, full degrees to %d — no truncation happened", sumPrefix, sumFull)
	}
}
