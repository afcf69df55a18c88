package oracle

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"rlibm/internal/fp"
)

func TestParseFunc(t *testing.T) {
	for _, f := range Funcs {
		got, err := ParseFunc(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunc(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFunc("sin"); err == nil {
		t.Error("ParseFunc(sin) should fail")
	}
}

func TestExactIdentities(t *testing.T) {
	f32 := fp.Float32
	for _, m := range fp.AllModes {
		if got := Correct(Exp, 0, f32, m); got != 1 {
			t.Errorf("exp(0) mode %v = %g", m, got)
		}
		if got := Correct(Log, 1, f32, m); got != 0 {
			t.Errorf("log(1) mode %v = %g", m, got)
		}
		if got := Correct(Exp2, 10, f32, m); got != 1024 {
			t.Errorf("exp2(10) mode %v = %g", m, got)
		}
		if got := Correct(Exp2, -3, f32, m); got != 0.125 {
			t.Errorf("exp2(-3) mode %v = %g", m, got)
		}
		if got := Correct(Log2, 1024, f32, m); got != 10 {
			t.Errorf("log2(1024) mode %v = %g", m, got)
		}
		if got := Correct(Log2, 0.25, f32, m); got != -2 {
			t.Errorf("log2(0.25) mode %v = %g", m, got)
		}
		if got := Correct(Exp10, 2, f32, m); got != 100 {
			t.Errorf("exp10(2) mode %v = %g", m, got)
		}
		if got := Correct(Log10, 1000, f32, m); got != 3 {
			t.Errorf("log10(1000) mode %v = %g", m, got)
		}
	}
}

// TestAgainstMathPackage: the oracle at float32 must sit within a couple of
// float32 ulps of the double-precision math package (which itself is
// accurate to well under a double ulp).
func TestAgainstMathPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f32 := fp.Float32
	for _, f := range Funcs {
		for i := 0; i < 300; i++ {
			var x float64
			if f.IsLog() {
				x = float64(float32(math.Ldexp(1+rng.Float64(), rng.Intn(60)-30)))
			} else {
				x = float64(float32((rng.Float64()*2 - 1) * 30))
			}
			got := Correct(f, x, f32, fp.RNE)
			want := float64(float32(f.MathRef(x)))
			if math.IsInf(want, 0) || math.IsInf(got, 0) {
				if got != want {
					t.Fatalf("%v(%g): got %g, math %g", f, x, got, want)
				}
				continue
			}
			diff := math.Abs(got - want)
			ulp := math.Abs(f32.NextUp(math.Abs(want)) - math.Abs(want))
			if diff > 2*ulp {
				t.Fatalf("%v(%g): got %.10g, math %.10g (diff %g, ulp %g)", f, x, got, want, diff, ulp)
			}
		}
	}
}

// TestModeOrdering: directed modes bracket the nearest modes.
func TestModeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f16 := fp.Float16
	for _, f := range Funcs {
		for i := 0; i < 100; i++ {
			var x float64
			if f.IsLog() {
				x = float64(float32(math.Ldexp(1+rng.Float64(), rng.Intn(10)-5)))
			} else {
				x = float64(float32((rng.Float64()*2 - 1) * 8))
			}
			dn := Correct(f, x, f16, fp.RTN)
			up := Correct(f, x, f16, fp.RTP)
			if dn > up {
				t.Fatalf("%v(%g): RTN %g > RTP %g", f, x, dn, up)
			}
			for _, m := range []fp.Mode{fp.RNE, fp.RNA, fp.RTZ, fp.RTO} {
				v := Correct(f, x, f16, m)
				if v < dn || v > up {
					t.Fatalf("%v(%g) mode %v = %g outside [%g, %g]", f, x, m, v, dn, up)
				}
			}
		}
	}
}

// TestRoundToOddConsistency: the oracle satisfies the RLibm-ALL theorem with
// itself — rounding the FP34/RTO oracle result down to a small format agrees
// with asking the oracle for that format directly.
func TestRoundToOddConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, f := range Funcs {
		for i := 0; i < 120; i++ {
			var x float64
			if f.IsLog() {
				x = float64(float32(math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)))
			} else {
				x = float64(float32((rng.Float64()*2 - 1) * 20))
			}
			ro := CorrectRO34(f, x)
			k := 10 + rng.Intn(23)
			target := fp.Format{Bits: k, ExpBits: 8}
			m := fp.StandardModes[rng.Intn(len(fp.StandardModes))]
			direct := Correct(f, x, target, m)
			via := target.Round(ro, m)
			if !sameFloat(direct, via) {
				t.Fatalf("%v(%g) k=%d mode %v: direct %g, via RO34 %g", f, x, k, m, direct, via)
			}
		}
	}
}

func TestSymbolicOverflowUnderflow(t *testing.T) {
	f32 := fp.Float32
	if got := Correct(Exp, 1e30, f32, fp.RNE); !math.IsInf(got, 1) {
		t.Errorf("exp(1e30) RNE = %g, want +Inf", got)
	}
	if got := Correct(Exp, 1e30, f32, fp.RTZ); got != f32.MaxFinite() {
		t.Errorf("exp(1e30) RTZ = %g, want max finite", got)
	}
	if got := Correct(Exp2, -1e30, f32, fp.RNE); got != 0 {
		t.Errorf("exp2(-1e30) RNE = %g, want 0", got)
	}
	if got := Correct(Exp10, -1e30, f32, fp.RTP); got != f32.MinSubnormal() {
		t.Errorf("exp10(-1e30) RTP = %g, want min subnormal", got)
	}
	if got := Correct(Exp, -1e30, f32, fp.RTO); got != f32.MinSubnormal() {
		t.Errorf("exp(-1e30) RTO = %g, want min subnormal", got)
	}
}

// TestRoundSymbolicMatchesRoundRat: the symbolic overflow/underflow
// results equal the exact rounding of values far beyond the range of every
// format, including the widest one fp accepts, and the cutoffs sit past
// every format's thresholds.
func TestRoundSymbolicMatchesRoundRat(t *testing.T) {
	formats := []fp.Format{fp.FP34, fp.Float32, fp.TensorFloat32, fp.Bfloat16, fp.Float16, {Bits: 63, ExpBits: 11}}
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 1025))
	tiny := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 1076))
	for _, tf := range formats {
		if err := tf.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, m := range fp.AllModes {
			if got, want := roundSymbolic(tf, m, true), tf.RoundRat(huge, m); !sameFloat(got, want) {
				t.Errorf("%v %v overflow: %g, want %g", tf, m, got, want)
			}
			if got, want := roundSymbolic(tf, m, false), tf.RoundRat(tiny, m); !sameFloat(got, want) {
				t.Errorf("%v %v underflow: %g, want %g", tf, m, got, want)
			}
		}
	}
	for _, c := range []struct {
		f    Func
		x    float64
		side int
	}{
		{Exp, 710.6, 1}, {Exp, 709, 0}, {Exp, -746, -1}, {Exp, -745, 0},
		{Exp2, 1025.5, 1}, {Exp2, 1024, 0}, {Exp2, -1076.5, -1}, {Exp2, -1075, 0},
		{Exp10, 308.6, 1}, {Exp10, 308, 0}, {Exp10, -324, -1}, {Exp10, -323, 0},
		{Log, 1e300, 0},
	} {
		if got := symbolicSide(c.f, c.x); got != c.side {
			t.Errorf("symbolicSide(%v, %g) = %d, want %d", c.f, c.x, got, c.side)
		}
		if c.side == 0 {
			continue
		}
		// The evaluated result, rounded, agrees with the symbolic one.
		y := c.f.EvalBig(c.x, 80)
		for _, tf := range formats {
			for _, m := range fp.AllModes {
				want, ok := roundUnambiguous(y, 72, tf, m)
				if got := roundSymbolic(tf, m, c.side > 0); !ok || !sameFloat(got, want) {
					t.Errorf("%v(%g) in %v/%v: symbolic %g, evaluated %g (ok=%v)", c.f, c.x, tf, m, got, want, ok)
				}
			}
		}
	}
}

// TestEvalBigConvergence: doubling the precision changes the result by less
// than the claimed error bound.
func TestEvalBigConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, f := range Funcs {
		for i := 0; i < 60; i++ {
			var x float64
			if f.IsLog() {
				x = math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
			} else {
				x = (rng.Float64()*2 - 1) * 80
			}
			lo := f.EvalBig(x, 96)
			hi := f.EvalBig(x, 256)
			// |lo - hi| <= 2^-90 * |hi|
			diff := new(big.Float).SetPrec(300).Sub(lo, hi)
			if diff.Sign() == 0 {
				continue
			}
			bound := new(big.Float).SetPrec(300).Abs(hi)
			bound.SetMantExp(bound, -90)
			if diff.Abs(diff).Cmp(bound) > 0 {
				t.Fatalf("%v(%g): precision-96 and precision-256 disagree by %s", f, x, diff.Text('e', 5))
			}
		}
	}
}

// TestLogNearOne: heavy cancellation territory for naive implementations.
func TestLogNearOne(t *testing.T) {
	f32 := fp.Float32
	for _, d := range []float64{1e-7, -1e-7, 1e-3, -1e-3, 0.4, -0.4} {
		x := float64(float32(1 + d))
		got := Correct(Log, x, f32, fp.RNE)
		want := float64(float32(math.Log(x)))
		if math.Abs(got-want) > 2*math.Abs(want)*1.2e-7+1e-12 {
			t.Errorf("log(%g) = %g, math says %g", x, got, want)
		}
	}
}

// TestExp10PowersAgainstExp2: 10^x == 2^(x*log2 10) — cross-check the two
// independent reductions at high precision.
func TestExp10CrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 40; i++ {
		x := (rng.Float64()*2 - 1) * 30
		a := Exp10.EvalBig(x, 200)
		// 2^(x*log2(10)) via explicit big computation.
		_, _, log210 := consts(400)
		t2 := new(big.Float).SetPrec(400).SetFloat64(x)
		t2.Mul(t2, log210)
		b := exp2BigFromBig(t2, 200)
		diff := new(big.Float).SetPrec(256).Sub(a, b)
		if diff.Sign() == 0 {
			continue
		}
		bound := new(big.Float).SetPrec(256).Abs(a)
		bound.SetMantExp(bound, -150)
		if diff.Abs(diff).Cmp(bound) > 0 {
			t.Fatalf("exp10(%g) cross-check failed: diff %s", x, diff.Text('e', 5))
		}
	}
}

// exp2BigFromBig evaluates 2^t for a big argument t (test helper).
func exp2BigFromBig(t *big.Float, prec uint) *big.Float {
	wp := prec + 64
	ln2, _, _ := consts(wp)
	tf, _ := t.Float64()
	n := int(math.RoundToEven(tf))
	f := new(big.Float).SetPrec(wp).Sub(t, new(big.Float).SetPrec(wp).SetInt64(int64(n)))
	r := new(big.Float).SetPrec(wp).Mul(f, ln2)
	y := expCore(r, wp)
	y.SetMantExp(y, n)
	return y
}

func TestCorrectPanicsOutsideDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for log(-1)")
		}
	}()
	Correct(Log, -1, fp.Float32, fp.RNE)
}

// TestLadder: the precision ladder starts at the base rung, climbs to the
// terminal precision after an escalation, and decays on easy inputs —
// without ever changing a rounded result.
func TestLadder(t *testing.T) {
	ResetLadders()
	defer ResetLadders()
	if got := ladderStart(Exp); got != basePrec {
		t.Fatalf("cold ladder start %d, want %d", got, basePrec)
	}
	ladderRecord(Exp, 640, 3)
	if got := ladderStart(Exp); got != 640 {
		t.Errorf("after escalation to 640: start %d, want 640", got)
	}
	ladderRecord(Exp, 640, 0)
	if got := ladderStart(Exp); got != 320 {
		t.Errorf("after one easy input: start %d, want 320", got)
	}
	ladderRecord(Exp, 1<<20, 5)
	if got := ladderStart(Exp); got != ladderMaxStart {
		t.Errorf("ladder start %d not capped at %d", got, ladderMaxStart)
	}

	// Result invariance: the same input rounds identically from a cold and
	// a hot ladder.
	ResetLadders()
	cold := compute(Exp, 0.7243156, false).Round(fp.FP34, fp.RTO)
	ladders[Exp].Store(1024)
	hot := compute(Exp, 0.7243156, false).Round(fp.FP34, fp.RTO)
	if math.Float64bits(cold) != math.Float64bits(hot) {
		t.Errorf("ladder changed a result: cold %g, hot %g", cold, hot)
	}
}
