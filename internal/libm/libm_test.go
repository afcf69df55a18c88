package libm

import (
	"math"
	"math/rand"
	"testing"

	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/oracle"
)

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
	for _, f := range Funcs {
		isLog := fnOracle[f.Name].IsLog()
		for si, impl := range f.F32 {
			if got := impl(nan); !math.IsNaN(float64(got)) {
				t.Errorf("%s/%v (NaN) = %g", f.Name, Schemes[si], got)
			}
			if got := impl(pinf); !math.IsInf(float64(got), 1) {
				t.Errorf("%s/%v (+Inf) = %g", f.Name, Schemes[si], got)
			}
			if isLog {
				if got := impl(ninf); !math.IsNaN(float64(got)) {
					t.Errorf("%s/%v (-Inf) = %g, want NaN", f.Name, Schemes[si], got)
				}
				if got := impl(-1); !math.IsNaN(float64(got)) {
					t.Errorf("%s/%v (-1) = %g, want NaN", f.Name, Schemes[si], got)
				}
				if got := impl(0); !math.IsInf(float64(got), -1) {
					t.Errorf("%s/%v (0) = %g, want -Inf", f.Name, Schemes[si], got)
				}
			} else {
				if got := impl(ninf); got != 0 {
					t.Errorf("%s/%v (-Inf) = %g, want 0", f.Name, Schemes[si], got)
				}
				if got := impl(0); got != 1 {
					t.Errorf("%s/%v (0) = %g, want 1", f.Name, Schemes[si], got)
				}
			}
		}
	}
}

// TestExactIdentities: inputs whose results are exactly representable must
// come out exactly, whichever path (polynomial or special table) serves
// them.
func TestExactIdentities(t *testing.T) {
	for n := -20; n <= 20; n++ {
		want := float32(math.Ldexp(1, n))
		for si := range Schemes {
			if got := Exp2Double(float32(n), Schemes[si]); float32(got) != want {
				t.Errorf("exp2(%d)/%v = %g, want %g", n, Schemes[si], got, want)
			}
			if got := Log2Double(want, Schemes[si]); float32(got) != float32(n) {
				t.Errorf("log2(2^%d)/%v = %g, want %d", n, Schemes[si], got, n)
			}
		}
	}
	for n := 0; n <= 8; n++ {
		want := float32(math.Pow(10, float64(n)))
		for si := range Schemes {
			if got := Exp10Double(float32(n), Schemes[si]); float32(got) != want {
				t.Errorf("exp10(%d)/%v = %g, want %g", n, Schemes[si], got, want)
			}
			if got := Log10Double(want, Schemes[si]); float32(got) != float32(n) {
				t.Errorf("log10(10^%d)/%v = %g, want %d", n, Schemes[si], got, n)
			}
		}
	}
	for si := range Schemes {
		if got := ExpDouble(0, Schemes[si]); got != 1 {
			t.Errorf("exp(0)/%v = %g", Schemes[si], got)
		}
		if got := LogDouble(1, Schemes[si]); got != 0 {
			t.Errorf("log(1)/%v = %g", Schemes[si], got)
		}
	}
}

// TestVariantsAgreeOnResults: the four configurations compute different
// instruction sequences but identical correctly rounded results. A tiny
// disagreement budget covers the documented stride-sampling residual, where
// two variants may land on opposite sides of a tie for an untrained input.
func TestVariantsAgreeOnResults(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, f := range Funcs {
		disagree := 0
		for i := 0; i < 30000; i++ {
			x := randInput(rng, f.Name)
			base := f.F32[0](x)
			for si := 1; si < 4; si++ {
				if got := f.F32[si](x); got != base && !(math.IsNaN(float64(got)) && math.IsNaN(float64(base))) {
					disagree++
					if disagree > 5 {
						t.Fatalf("%s(%g): %v gives %g, %v gives %g (too many disagreements)",
							f.Name, x, Schemes[0], base, Schemes[si], got)
					}
				}
			}
		}
		if disagree > 0 {
			t.Logf("%s: %d variant disagreements in 90000 comparisons (documented residual)", f.Name, disagree)
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
// boundaries. The test therefore allows that documented residual (and
// requires any miss to be at most one float32 ulp); the ML formats are
// covered exhaustively by TestExhaustiveBfloat16Inputs and
// TestExhaustiveTF32SampledModes with zero tolerance.
func TestAgainstOracleSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	f32 := fp.Float32
	const perFunc = 1200
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		misses := 0
		checked := 0
		for i := 0; i < perFunc; i++ {
			x := randInput(rng, f.Name)
			fx := float64(x)
			if fx == 0 || math.IsNaN(fx) || math.IsInf(fx, 0) || (ofn.IsLog() && fx <= 0) {
				continue
			}
			want := float32(oracle.Correct(ofn, fx, f32, fp.RNE))
			for si, impl := range f.F32 {
				got := impl(x)
				checked++
				if math.Float32bits(got) == math.Float32bits(want) {
					continue
				}
				misses++
				// Any residual miss must be a single float32 ulp.
				up := float32(f32.NextUp(float64(want)))
				dn := float32(f32.NextDown(float64(want)))
				if got != up && got != dn {
					t.Fatalf("%s(%x=%g)/%v = %g (%x), oracle %g (%x): more than one ulp off",
						f.Name, math.Float32bits(x), x, Schemes[si], got,
						math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
		if misses > checked/500 {
			t.Fatalf("%s: %d of %d sampled results off by one ulp — far above the documented residual", f.Name, misses, checked)
		}
		if misses > 0 {
			t.Logf("%s: %d of %d sampled results one ulp off (documented stride-sampling residual)", f.Name, misses, checked)
		}
	}
}

// TestMultiFormatSampled: the raw double result double-rounds correctly to
// smaller formats under every standard mode (the RLibm-ALL guarantee).
func TestMultiFormatSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	formats := []fp.Format{fp.Bfloat16, fp.TensorFloat32, {Bits: 27, ExpBits: 8}, {Bits: 10, ExpBits: 8}}
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		for i := 0; i < 250; i++ {
			x := randInput(rng, f.Name)
			fx := float64(x)
			if fx == 0 || math.IsNaN(fx) || math.IsInf(fx, 0) || (ofn.IsLog() && fx <= 0) {
				continue
			}
			d := f.Double(x, SchemeEstrinFMA)
			val := oracle.Compute(ofn, fx)
			for _, t2 := range formats {
				for _, m := range fp.StandardModes {
					got := RoundTo(d, t2, m)
					want := val.Round(t2, m)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%g) to %v/%v: got %g, oracle %g", f.Name, x, t2, m, got, want)
					}
				}
			}
		}
	}
}

// TestDomainCutsMatchPipeline: the generated plateau constants agree with a
// fresh domain analysis against the FP34 target.
func TestDomainCutsMatchPipeline(t *testing.T) {
	for _, g := range shippedTables {
		fn, d := fnOracle[g.name], g.data
		if fn.IsLog() {
			continue
		}
		dom := core.FindDomain(fn, fp.FP34)
		if dom.Lo != d.domLo || dom.Hi != d.domHi {
			t.Errorf("%v: domain cuts (%.17g, %.17g) vs pipeline (%.17g, %.17g)",
				fn, d.domLo, d.domHi, dom.Lo, dom.Hi)
		}
		if dom.TinyLo != d.tinyLo || dom.TinyHi != d.tinyHi {
			t.Errorf("%v: tiny cuts differ", fn)
		}
		if dom.LoVal != d.loVal || dom.HiVal != d.hiVal ||
			dom.TinyLoVal != d.tinyLoVal || dom.TinyHiVal != d.tinyHiVal {
			t.Errorf("%v: plateau values differ", fn)
		}
	}
}

// TestPlateauEdges: inputs at and just beyond the cuts produce the correct
// results for all modes (overflow, underflow, near-one).
func TestPlateauEdges(t *testing.T) {
	f32 := fp.Float32
	// Overflow: the float32 just above the exp cut must give +Inf under RNE
	// and MaxFinite under RTZ.
	big := float32(89)
	if got := f32.Round(ExpDouble(big, SchemeEstrinFMA), fp.RNE); !math.IsInf(got, 1) {
		t.Errorf("exp(89) RNE = %g, want +Inf", got)
	}
	if got := f32.Round(ExpDouble(big, SchemeEstrinFMA), fp.RTZ); got != f32.MaxFinite() {
		t.Errorf("exp(89) RTZ = %g, want max finite", got)
	}
	// Underflow: exp(-104) flushes to zero under RNE but not under RTP.
	small := float32(-104)
	if got := f32.Round(ExpDouble(small, SchemeEstrinFMA), fp.RNE); got != 0 {
		t.Errorf("exp(-104) RNE = %g, want 0", got)
	}
	if got := f32.Round(ExpDouble(small, SchemeEstrinFMA), fp.RTP); got != f32.MinSubnormal() {
		t.Errorf("exp(-104) RTP = %g, want min subnormal", got)
	}
	// Near-one plateau: the smallest positive float32.
	tiny := float32(math.Float32frombits(1))
	want := oracle.Correct(oracle.Exp, float64(tiny), f32, fp.RNE)
	if got := f32.Round(ExpDouble(tiny, SchemeEstrinFMA), fp.RNE); got != want {
		t.Errorf("exp(min subnormal) = %g, oracle %g", got, want)
	}
	wantUp := oracle.Correct(oracle.Exp, float64(tiny), f32, fp.RTP)
	if got := f32.Round(ExpDouble(tiny, SchemeEstrinFMA), fp.RTP); got != wantUp {
		t.Errorf("exp(min subnormal) RTP = %g, oracle %g", got, wantUp)
	}
}

// TestSubnormalOutputs: exp2 deep in the subnormal output range.
func TestSubnormalOutputs(t *testing.T) {
	f32 := fp.Float32
	for _, x := range []float32{-127.5, -130.25, -140.0625, -148.8, -149.2} {
		d := Exp2Double(x, SchemeEstrinFMA)
		want := oracle.Correct(oracle.Exp2, float64(x), f32, fp.RNE)
		if got := f32.Round(d, fp.RNE); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("exp2(%g) = %g, oracle %g", x, got, want)
		}
	}
}

// TestBoundaryNeighborhoods walks float32 neighbours around every domain
// cut, comparing against the oracle — the most failure-prone inputs.
func TestBoundaryNeighborhoods(t *testing.T) {
	f32 := fp.Float32
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		if ofn.IsLog() {
			continue
		}
		d := shippedData(t, f.Name)
		for _, cut := range []float64{d.domLo, d.domHi, d.tinyLo, d.tinyHi} {
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
				d := f.Double(xi, SchemeEstrinFMA)
				for _, m := range fp.StandardModes {
					got := f32.Round(d, m)
					want := oracle.Correct(ofn, fx, f32, m)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%g) near cut %g mode %v: got %g, oracle %g",
							f.Name, xi, cut, m, got, want)
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
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		wrong := 0
		checked := 0
		bf.FiniteValues(func(b uint64, v float64) bool {
			if v == 0 || (ofn.IsLog() && v <= 0) {
				return true
			}
			d := f.Double(float32(v), SchemeEstrinFMA)
			val := oracle.Compute(ofn, v)
			for _, m := range fp.StandardModes {
				got := RoundTo(d, bf, m)
				want := val.Round(bf, m)
				checked++
				if math.Float64bits(got) != math.Float64bits(want) {
					wrong++
					if wrong <= 3 {
						t.Errorf("%s(%g) to bfloat16/%v: got %g, oracle %g", f.Name, v, m, got, want)
					}
				}
			}
			return true
		})
		if wrong > 0 {
			t.Fatalf("%s: %d of %d bfloat16 results wrong", f.Name, wrong, checked)
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
	for _, f := range Funcs {
		ofn := fnOracle[f.Name]
		wrong := 0
		tf.FiniteValues(func(b uint64, v float64) bool {
			if v == 0 || (ofn.IsLog() && v <= 0) {
				return true
			}
			d := f.Double(float32(v), SchemeEstrinFMA)
			val := oracle.Compute(ofn, v)
			for _, m := range modes {
				got := RoundTo(d, tf, m)
				want := val.Round(tf, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					wrong++
					if wrong <= 3 {
						t.Errorf("%s(%g) to tf32/%v: got %g, oracle %g", f.Name, v, m, got, want)
					}
				}
			}
			return wrong < 10
		})
		if wrong > 0 {
			t.Fatalf("%s: %d tensorfloat32 results wrong", f.Name, wrong)
		}
	}
}

// TestShippedDataSanity: structural invariants of the embedded generation
// data — degrees within RLibm's bounds, finite coefficients, sorted piece
// boundaries and special tables, and the expected leading coefficients
// (p(0)=1 for exponentials via c0~1; logs have c0~0).
func TestShippedDataSanity(t *testing.T) {
	for _, fd := range shippedTables {
		isLog := fd.name[0] == 'l'
		for si := range fd.data.impls {
			impl := &fd.data.impls[si]
			if len(impl.pieces) == 0 {
				t.Fatalf("%s/%d: no pieces", fd.name, si)
			}
			for pi, p := range impl.pieces {
				if len(p.coeffs) < 4 || len(p.coeffs) > 7 {
					t.Errorf("%s/%d piece %d: %d coefficients (degree out of RLibm's 3..6 range)",
						fd.name, si, pi, len(p.coeffs))
				}
				for ci, c := range p.coeffs {
					if math.IsNaN(c) || math.IsInf(c, 0) {
						t.Errorf("%s/%d piece %d c%d non-finite", fd.name, si, pi, ci)
					}
				}
				if pi > 0 && !(p.lo > impl.pieces[pi-1].lo) {
					t.Errorf("%s/%d: piece boundaries not increasing", fd.name, si)
				}
				// Only the piece containing the zero reduced input has its
				// constant term pinned (to log(1)=0 resp. 2^0=1); later
				// pieces fit their own sub-domain freely.
				if pi == 0 {
					if isLog {
						if math.Abs(p.coeffs[0]) > 1e-9 {
							t.Errorf("%s/%d piece %d: c0 = %g, want ~0", fd.name, si, pi, p.coeffs[0])
						}
					} else if math.Abs(p.coeffs[0]-1) > 1e-6 {
						t.Errorf("%s/%d piece %d: c0 = %g, want ~1", fd.name, si, pi, p.coeffs[0])
					}
				}
			}
			for i := 1; i < len(impl.specialBits); i++ {
				if impl.specialBits[i] <= impl.specialBits[i-1] {
					t.Errorf("%s/%d: special table not sorted", fd.name, si)
				}
			}
			if len(impl.specialBits) != len(impl.specialVals) {
				t.Errorf("%s/%d: special table length mismatch", fd.name, si)
			}
			if len(impl.specialBits) > 16 {
				t.Errorf("%s/%d: %d specials — far beyond the paper's few-per-function", fd.name, si, len(impl.specialBits))
			}
			// The Knuth slot adapts every degree-4..6 piece.
			if Scheme(si) == SchemeKnuth {
				for pi, p := range impl.pieces {
					if p.a4 == nil && p.a5 == nil && p.a6 == nil {
						t.Errorf("%s/knuth piece %d: missing adapted coefficients", fd.name, pi)
					}
				}
			}
		}
		if !isLog {
			if !(fd.data.domLo < 0 && fd.data.domHi > 0 &&
				fd.data.tinyLo < 0 && fd.data.tinyHi > 0) {
				t.Errorf("%s: implausible domain cuts %+v", fd.name, fd.data)
			}
		}
	}
}
