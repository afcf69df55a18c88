package oracle

import (
	"math"
	"math/rand"
	"testing"

	"rlibm/internal/fp"
)

// targetOutputs returns kernel outputs to check against f(x): the
// correctly rounded RO34 value itself, neighbours at growing float64-ulp
// distances (inside the same round-to-odd class, then across one or more
// class boundaries), its negation, and the special values.
func targetOutputs(y float64) []float64 {
	out := []float64{y, -y, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, k := range []int64{1, 1 << 20, 1 << 26, 1 << 27, 1 << 28, 1 << 29, 1 << 31} {
		b := math.Float64bits(y)
		out = append(out, math.Float64frombits(b+uint64(k)), math.Float64frombits(b-uint64(k)))
	}
	return out
}

// TestTargetsShortcutMatchesExpanded: the round-to-odd shortcut reports
// exactly what the per-target comparison reports (checked and wrong counts
// and the first wrong target) for right, nearly right and wrong outputs,
// and it asks the oracle once whenever the outputs agree in round-to-odd
// space.
func TestTargetsShortcutMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	short := Targets{Widths: []int{10, 19, 27, 32}, ExpBits: 8, Modes: fp.AllModes}
	full := short
	full.Expand = true
	nTargets := len(short.Widths) * len(short.Modes)
	for _, f := range Funcs {
		for i := 0; i < 64; i++ {
			x := float64(float32(rng.Float64()*160 - 80))
			if f.IsLog() {
				x = float64(math.Float32frombits(rng.Uint32() &^ (1 << 31)))
			}
			if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				continue
			}
			y34 := CorrectRO34(f, x)
			for _, d := range targetOutputs(y34) {
				a, b := short.Check(f, x, d), full.Check(f, x, d)
				if a.Checked != b.Checked || a.Wrong != b.Wrong || !sameMiss(a.First, b.First) {
					t.Fatalf("%v(%g) d=%g: shortcut %+v, expanded %+v", f, x, d, a, b)
				}
				if b.Queries != nTargets || a.Checked != nTargets {
					t.Fatalf("%v(%g) d=%g: expanded %d queries, %d checks; want %d", f, x, d, b.Queries, a.Checked, nTargets)
				}
				settled := sameFloat(fp.FP34.Round(d, fp.RTO), y34)
				if settled && (a.Queries != 1 || a.Wrong != 0) {
					t.Fatalf("%v(%g) d=%g matches in RO34 space but took %d queries, %d wrong", f, x, d, a.Queries, a.Wrong)
				}
				if !settled && a.Queries != 1+nTargets {
					t.Fatalf("%v(%g) d=%g: %d queries after a mismatch, want %d", f, x, d, a.Queries, 1+nTargets)
				}
			}
		}
	}
}

// TestExpectedMatchesCheck: checking many outputs against one prepared
// Value reports, output by output, exactly what Targets.Check reports, for
// the shortcut and the expanded form alike, without a single oracle query.
func TestExpectedMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	short := Targets{Widths: []int{10, 19, 27, 32}, ExpBits: 8, Modes: fp.AllModes}
	full := short
	full.Expand = true
	var v Value
	var e Expected
	for _, f := range Funcs {
		for i := 0; i < 32; i++ {
			x := float64(float32(rng.Float64()*160 - 80))
			if f.IsLog() {
				x = float64(math.Float32frombits(rng.Uint32() &^ (1 << 31)))
			}
			if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				continue
			}
			v.Reset(f, x)
			for _, ts := range []*Targets{&short, &full} {
				ts.Expect(&e, &v)
				for _, d := range targetOutputs(CorrectRO34(f, x)) {
					a, b := e.Check(d), ts.Check(f, x, d)
					if a.Checked != b.Checked || a.Wrong != b.Wrong || !sameMiss(a.First, b.First) || a.Queries != 0 {
						t.Fatalf("%v(%g) d=%g expand=%v: prepared %+v, Check %+v", f, x, d, ts.Expand, a, b)
					}
				}
			}
		}
	}
}

func sameMiss(a, b Miss) bool {
	return a.Bits == b.Bits && a.Mode == b.Mode && sameFloat(a.Got, b.Got) && sameFloat(a.Want, b.Want)
}

// TestTargetsSignlessZero: an exact zero result is compared
// sign-insensitively only when the targets ask for it.
func TestTargetsSignlessZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ts := Targets{Widths: []int{16, 32}, ExpBits: 8, Modes: fp.StandardModes}
	if tl := ts.Check(Log, 1, negZero); tl.Wrong != tl.Checked || tl.Checked != 10 {
		t.Fatalf("log(1) = -0, signed: %+v", tl)
	}
	ts.SignlessZero = true
	if tl := ts.Check(Log, 1, negZero); tl.Wrong != 0 || tl.Checked != 10 {
		t.Fatalf("log(1) = -0, signless: %+v", tl)
	}
}
