package libm

import (
	"math"
	"math/rand"
	"testing"

	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/oracle"
)

// kernel returns the shipped raw double kernel of fn under scheme s.
func kernel(fn string, s Scheme) func(float64) float64 {
	k := GeneratedFuncs[fn+"/"+s.String()]
	if k == nil {
		panic("libm: no generated kernel " + fn + "/" + s.String())
	}
	return k
}

// kernel32 is the shipped kernel's correctly rounded float32 result.
func kernel32(fn string, s Scheme) func(float32) float32 {
	k := kernel(fn, s)
	return func(x float32) float32 { return float32(k(float64(x))) }
}

// fnOracle maps the library functions to their oracle counterparts.
var fnOracle = map[string]oracle.Func{
	"exp": oracle.Exp, "exp2": oracle.Exp2, "exp10": oracle.Exp10,
	"log": oracle.Log, "log2": oracle.Log2, "log10": oracle.Log10,
}

// TestSpecialValuesIEEE: NaN/Inf/zero semantics for every function and
// variant.
func TestSpecialValuesIEEE(t *testing.T) {
	nan := float32(math.NaN())
	pinf := float32(math.Inf(1))
	ninf := float32(math.Inf(-1))
	for _, name := range FuncNames {
		isLog := fnOracle[name].IsLog()
		for _, s := range Schemes {
			impl := kernel32(name, s)
			if got := impl(nan); !math.IsNaN(float64(got)) {
				t.Errorf("%s/%v (NaN) = %g", name, s, got)
			}
			if got := impl(pinf); !math.IsInf(float64(got), 1) {
				t.Errorf("%s/%v (+Inf) = %g", name, s, got)
			}
			if isLog {
				if got := impl(ninf); !math.IsNaN(float64(got)) {
					t.Errorf("%s/%v (-Inf) = %g, want NaN", name, s, got)
				}
				if got := impl(-1); !math.IsNaN(float64(got)) {
					t.Errorf("%s/%v (-1) = %g, want NaN", name, s, got)
				}
				if got := impl(0); !math.IsInf(float64(got), -1) {
					t.Errorf("%s/%v (0) = %g, want -Inf", name, s, got)
				}
			} else {
				if got := impl(ninf); got != 0 {
					t.Errorf("%s/%v (-Inf) = %g, want 0", name, s, got)
				}
				if got := impl(0); got != 1 {
					t.Errorf("%s/%v (0) = %g, want 1", name, s, got)
				}
			}
		}
	}
}

// TestExactIdentities: inputs whose results are exactly representable must
// come out exactly, whichever path (polynomial or special table) serves
// them.
func TestExactIdentities(t *testing.T) {
	for _, s := range Schemes {
		for n := -20; n <= 20; n++ {
			want := math.Ldexp(1, n)
			if got := kernel("exp2", s)(float64(n)); float32(got) != float32(want) {
				t.Errorf("exp2(%d)/%v = %g, want %g", n, s, got, want)
			}
			if got := kernel("log2", s)(want); float32(got) != float32(n) {
				t.Errorf("log2(2^%d)/%v = %g, want %d", n, s, got, n)
			}
		}
		for n := 0; n <= 8; n++ {
			want := math.Pow(10, float64(n))
			if got := kernel("exp10", s)(float64(n)); float32(got) != float32(want) {
				t.Errorf("exp10(%d)/%v = %g, want %g", n, s, got, want)
			}
			if got := kernel("log10", s)(want); float32(got) != float32(n) {
				t.Errorf("log10(10^%d)/%v = %g, want %d", n, s, got, n)
			}
		}
		if got := kernel("exp", s)(0); got != 1 {
			t.Errorf("exp(0)/%v = %g", s, got)
		}
		if got := kernel("log", s)(1); got != 0 {
			t.Errorf("log(1)/%v = %g", s, got)
		}
	}
}

// TestVariantsAgreeOnResults: the four configurations compute different
// instruction sequences but identical correctly rounded results. The seeded
// sample has no disagreement for any function, so none is allowed: the
// stride-sampling residual (two variants on opposite sides of a tie for an
// untrained input) exists, but not on these inputs.
func TestVariantsAgreeOnResults(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, name := range FuncNames {
		var impls [4]func(float32) float32
		for si, s := range Schemes {
			impls[si] = kernel32(name, s)
		}
		for i := 0; i < 30000; i++ {
			x := randInput(rng, name)
			base := impls[0](x)
			for si := 1; si < 4; si++ {
				if got := impls[si](x); got != base && !(math.IsNaN(float64(got)) && math.IsNaN(float64(base))) {
					t.Fatalf("%s(%g): %v gives %g, %v gives %g",
						name, x, Schemes[0], base, Schemes[si], got)
				}
			}
		}
	}
}

// TestAgainstOracleSampled: the library's float32 results match the oracle
// on random and structured inputs — the sampled stand-in for the artifact's
// exhaustive 2^32 sweep.
//
// The shipped polynomials are trained on a ~1.3M-input sweep per function
// rather than all 2^32 inputs (DESIGN.md, substitution 3), which leaves a
// measured ~3e-5 fraction of float32 inputs one ulp off near rounding-tie
// boundaries (ROADMAP item 1). None of them is in this seeded sample, for
// any function or scheme, so the test allows no miss; the ML formats are
// covered exhaustively by TestExhaustiveBfloat16Inputs and
// TestExhaustiveTF32SampledModes.
func TestAgainstOracleSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	f32 := fp.Float32
	const perFunc = 1200
	for _, name := range FuncNames {
		ofn := fnOracle[name]
		for i := 0; i < perFunc; i++ {
			x := randInput(rng, name)
			fx := float64(x)
			if fx == 0 || math.IsNaN(fx) || math.IsInf(fx, 0) || (ofn.IsLog() && fx <= 0) {
				continue
			}
			want := float32(oracle.Correct(ofn, fx, f32, fp.RNE))
			for _, s := range Schemes {
				if got := kernel32(name, s)(x); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s(%x=%g)/%v = %g (%x), oracle %g (%x)",
						name, math.Float32bits(x), x, s, got,
						math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

// TestMultiFormatSampled: the raw double result double-rounds correctly to
// smaller formats under every standard mode (the RLibm-ALL guarantee).
func TestMultiFormatSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	formats := []fp.Format{fp.Bfloat16, fp.TensorFloat32, {Bits: 27, ExpBits: 8}, {Bits: 10, ExpBits: 8}}
	for _, name := range FuncNames {
		ofn := fnOracle[name]
		k := kernel(name, SchemeEstrinFMA)
		for i := 0; i < 250; i++ {
			x := randInput(rng, name)
			fx := float64(x)
			if fx == 0 || math.IsNaN(fx) || math.IsInf(fx, 0) || (ofn.IsLog() && fx <= 0) {
				continue
			}
			d := k(fx)
			val := oracle.Compute(ofn, fx)
			for _, t2 := range formats {
				for _, m := range fp.StandardModes {
					got := t2.Round(d, m)
					want := val.Round(t2, m)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%g) to %v/%v: got %g, oracle %g", name, x, t2, m, got, want)
					}
				}
			}
		}
	}
}

// TestDomainCutsMatchPipeline: the generated plateau constants agree with a
// fresh domain analysis against the FP34 target.
func TestDomainCutsMatchPipeline(t *testing.T) {
	for _, d := range generatedTable.Funcs {
		fn := fnOracle[d.Name]
		if fn.IsLog() {
			continue
		}
		dom := core.FindDomain(fn, fp.FP34)
		if dom.Lo != d.DomLo || dom.Hi != d.DomHi {
			t.Errorf("%v: domain cuts (%.17g, %.17g) vs pipeline (%.17g, %.17g)",
				fn, d.DomLo, d.DomHi, dom.Lo, dom.Hi)
		}
		if dom.TinyLo != d.TinyLo || dom.TinyHi != d.TinyHi {
			t.Errorf("%v: tiny cuts differ", fn)
		}
		if dom.LoVal != d.LoVal || dom.HiVal != d.HiVal ||
			dom.TinyLoVal != d.TinyLoVal || dom.TinyHiVal != d.TinyHiVal {
			t.Errorf("%v: plateau values differ", fn)
		}
	}
}

// TestPlateauEdges: inputs at and just beyond the cuts produce the correct
// results for all modes (overflow, underflow, near-one).
func TestPlateauEdges(t *testing.T) {
	f32 := fp.Float32
	exp := kernel("exp", SchemeEstrinFMA)
	// Overflow: the float32 just above the exp cut must give +Inf under RNE
	// and MaxFinite under RTZ.
	big := float32(89)
	if got := f32.Round(exp(float64(big)), fp.RNE); !math.IsInf(got, 1) {
		t.Errorf("exp(89) RNE = %g, want +Inf", got)
	}
	if got := f32.Round(exp(float64(big)), fp.RTZ); got != f32.MaxFinite() {
		t.Errorf("exp(89) RTZ = %g, want max finite", got)
	}
	// Underflow: exp(-104) flushes to zero under RNE but not under RTP.
	small := float32(-104)
	if got := f32.Round(exp(float64(small)), fp.RNE); got != 0 {
		t.Errorf("exp(-104) RNE = %g, want 0", got)
	}
	if got := f32.Round(exp(float64(small)), fp.RTP); got != f32.MinSubnormal() {
		t.Errorf("exp(-104) RTP = %g, want min subnormal", got)
	}
	// Near-one plateau: the smallest positive float32.
	tiny := float32(math.Float32frombits(1))
	want := oracle.Correct(oracle.Exp, float64(tiny), f32, fp.RNE)
	if got := f32.Round(exp(float64(tiny)), fp.RNE); got != want {
		t.Errorf("exp(min subnormal) = %g, oracle %g", got, want)
	}
	wantUp := oracle.Correct(oracle.Exp, float64(tiny), f32, fp.RTP)
	if got := f32.Round(exp(float64(tiny)), fp.RTP); got != wantUp {
		t.Errorf("exp(min subnormal) RTP = %g, oracle %g", got, wantUp)
	}
}

// TestSubnormalOutputs: exp2 deep in the subnormal output range.
func TestSubnormalOutputs(t *testing.T) {
	f32 := fp.Float32
	for _, x := range []float32{-127.5, -130.25, -140.0625, -148.8, -149.2} {
		d := kernel("exp2", SchemeEstrinFMA)(float64(x))
		want := oracle.Correct(oracle.Exp2, float64(x), f32, fp.RNE)
		if got := f32.Round(d, fp.RNE); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("exp2(%g) = %g, oracle %g", x, got, want)
		}
	}
}

// TestBoundaryNeighborhoods walks float32 neighbours around every domain
// cut of the generated table, comparing the shipped kernel against the
// oracle — the most failure-prone inputs.
func TestBoundaryNeighborhoods(t *testing.T) {
	f32 := fp.Float32
	for _, name := range FuncNames {
		ofn := fnOracle[name]
		if ofn.IsLog() {
			continue
		}
		ft := generatedFunc(name)
		kern := kernel(name, SchemeEstrinFMA)
		for _, cut := range []float64{ft.DomLo, ft.DomHi, ft.TinyLo, ft.TinyHi} {
			x := float32(cut)
			for k := -8; k <= 8; k++ {
				xi := x
				for j := 0; j < abs(k); j++ {
					if k > 0 {
						xi = math.Nextafter32(xi, float32(math.Inf(1)))
					} else {
						xi = math.Nextafter32(xi, float32(math.Inf(-1)))
					}
				}
				fx := float64(xi)
				if fx == 0 || math.IsInf(fx, 0) {
					continue
				}
				d := kern(fx)
				for _, m := range fp.StandardModes {
					got := f32.Round(d, m)
					want := oracle.Correct(ofn, fx, f32, m)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%g) near cut %g mode %v: got %g, oracle %g",
							name, xi, cut, m, got, want)
					}
				}
			}
		}
	}
}

func abs(k int) int {
	if k < 0 {
		return -k
	}
	return k
}

// randInput draws inputs over the function's meaningful float32 domain,
// including subnormals and special-path territory.
func randInput(rng *rand.Rand, name string) float32 {
	switch rng.Intn(8) {
	case 0: // arbitrary bit pattern (covers NaN/Inf/subnormals too)
		return math.Float32frombits(rng.Uint32())
	case 1: // tiny
		return float32(math.Ldexp(1+rng.Float64(), -120-rng.Intn(30)))
	}
	switch name {
	case "exp":
		return float32((rng.Float64()*2 - 1) * 110)
	case "exp2":
		return float32((rng.Float64()*2 - 1) * 160)
	case "exp10":
		return float32((rng.Float64()*2 - 1) * 50)
	default:
		return float32(math.Ldexp(1+rng.Float64(), rng.Intn(253)-126))
	}
}

// TestExhaustiveBfloat16Inputs: every bfloat16 value is a float32 value
// whose trailing mantissa bits are zero; the generator enumerates all of
// them (the aligned pass), so the library is exhaustively correct for
// bfloat16 inputs rounded back to bfloat16 — checked here against the
// oracle for every finite bfloat16 input, all five modes.
func TestExhaustiveBfloat16Inputs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep; skipped with -short")
	}
	bf := fp.Bfloat16
	for _, name := range FuncNames {
		ofn := fnOracle[name]
		k := kernel(name, SchemeEstrinFMA)
		wrong := 0
		checked := 0
		bf.FiniteValues(func(b uint64, v float64) bool {
			if v == 0 || (ofn.IsLog() && v <= 0) {
				return true
			}
			d := k(v)
			val := oracle.Compute(ofn, v)
			for _, m := range fp.StandardModes {
				got := bf.Round(d, m)
				want := val.Round(bf, m)
				checked++
				if math.Float64bits(got) != math.Float64bits(want) {
					wrong++
					if wrong <= 3 {
						t.Errorf("%s(%g) to bfloat16/%v: got %g, oracle %g", name, v, m, got, want)
					}
				}
			}
			return true
		})
		if wrong > 0 {
			t.Fatalf("%s: %d of %d bfloat16 results wrong", name, wrong, checked)
		}
	}
}

// TestExhaustiveTF32SampledModes: all tensorfloat32-representable inputs
// (a 2^19-point grid), one nearest and one directed mode to keep the oracle
// budget reasonable.
func TestExhaustiveTF32SampledModes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep; skipped with -short")
	}
	tf := fp.TensorFloat32
	modes := []fp.Mode{fp.RNE, fp.RTN}
	for _, name := range FuncNames {
		ofn := fnOracle[name]
		k := kernel(name, SchemeEstrinFMA)
		wrong := 0
		tf.FiniteValues(func(b uint64, v float64) bool {
			if v == 0 || (ofn.IsLog() && v <= 0) {
				return true
			}
			d := k(v)
			val := oracle.Compute(ofn, v)
			for _, m := range modes {
				got := tf.Round(d, m)
				want := val.Round(tf, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					wrong++
					if wrong <= 3 {
						t.Errorf("%s(%g) to tf32/%v: got %g, oracle %g", name, v, m, got, want)
					}
				}
			}
			return wrong < 10
		})
		if wrong > 0 {
			t.Fatalf("%s: %d tensorfloat32 results wrong", name, wrong)
		}
	}
}

// TestShippedDataSanity: structural invariants of the table the kernels
// were emitted from — degrees within RLibm's bounds, finite coefficients,
// sorted piece boundaries and special tables, and the expected leading
// coefficients (p(0)=1 for exponentials via c0~1; logs have c0~0).
func TestShippedDataSanity(t *testing.T) {
	for _, ft := range generatedTable.Funcs {
		isLog := ft.Name[0] == 'l'
		for si, st := range ft.Schemes {
			s := Scheme(si)
			if len(st.Pieces) == 0 {
				t.Fatalf("%s/%v: no pieces", ft.Name, s)
			}
			for pi, p := range st.Pieces {
				if len(p.Coeffs) < 4 || len(p.Coeffs) > 7 {
					t.Errorf("%s/%v piece %d: %d coefficients (degree out of RLibm's 3..6 range)",
						ft.Name, s, pi, len(p.Coeffs))
				}
				for ci, c := range p.Coeffs {
					if math.IsNaN(c) || math.IsInf(c, 0) {
						t.Errorf("%s/%v piece %d c%d non-finite", ft.Name, s, pi, ci)
					}
				}
				if pi > 0 && !(p.Lo > st.Pieces[pi-1].Lo) {
					t.Errorf("%s/%v: piece boundaries not increasing", ft.Name, s)
				}
				// Only the piece containing the zero reduced input has its
				// constant term pinned (to log(1)=0 resp. 2^0=1); later
				// pieces fit their own sub-domain freely.
				if pi == 0 {
					if isLog {
						if math.Abs(p.Coeffs[0]) > 1e-9 {
							t.Errorf("%s/%v piece %d: c0 = %g, want ~0", ft.Name, s, pi, p.Coeffs[0])
						}
					} else if math.Abs(p.Coeffs[0]-1) > 1e-6 {
						t.Errorf("%s/%v piece %d: c0 = %g, want ~1", ft.Name, s, pi, p.Coeffs[0])
					}
				}
				// The Knuth slot adapts every degree-4..6 piece; no other
				// scheme carries adapted coefficients.
				if (s == SchemeKnuth) != (p.Adapted != nil) {
					t.Errorf("%s/%v piece %d: %d adapted coefficients", ft.Name, s, pi, len(p.Adapted))
				}
			}
			for i := 1; i < len(st.SpecialBits); i++ {
				if st.SpecialBits[i] <= st.SpecialBits[i-1] {
					t.Errorf("%s/%v: special table not sorted", ft.Name, s)
				}
			}
			if len(st.SpecialBits) != len(st.SpecialVals) {
				t.Errorf("%s/%v: special table length mismatch", ft.Name, s)
			}
			if len(st.SpecialBits) > 16 {
				t.Errorf("%s/%v: %d specials — far beyond the paper's few-per-function", ft.Name, s, len(st.SpecialBits))
			}
		}
		if !isLog {
			if !(ft.DomLo < 0 && ft.DomHi > 0 && ft.TinyLo < 0 && ft.TinyHi > 0) {
				t.Errorf("%s: implausible domain cuts %g %g %g %g", ft.Name, ft.DomLo, ft.DomHi, ft.TinyLo, ft.TinyHi)
			}
		}
	}
}
