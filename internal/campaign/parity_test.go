package campaign

import (
	"context"
	"math"
	"testing"
)

// genVerifySlices is the campaign slice of the benchmark's gen_verify
// workload at seed 1: eight runs of 512 consecutive float32 patterns per
// function family, the logarithms in [0.9375, 1.125) and the exponentials
// in |x| in [1/16, 64) with every other run mirrored to negative inputs,
// all four schemes, the generated kernels, widths 19/27/32.
func genVerifySlices() []Config {
	slice := func(funcs []string, ranges []Range) Config {
		return Config{
			Funcs: funcs, Schemes: AllSchemeNames(), Widths: []int{19, 27, 32},
			Lanes: []Lane{LaneFloat32}, Stride: 1, Ranges: ranges, UnitSize: 512,
		}
	}
	run := func(lo uint64) Range { return Range{lo, lo + 512} }
	return []Config{
		slice([]string{"log", "log2", "log10"}, []Range{
			run(0x3f724552), run(0x3f77bc4f), run(0x3f7bfc1d), run(0x3f7cca03),
			run(0x3f8024d1), run(0x3f8508d8), run(0x3f89001e), run(0x3f8cc094),
		}),
		slice([]string{"exp", "exp2", "exp10"}, []Range{
			run(0x3dd819a0), run(0x3f0c5104), run(0x4094bb36), run(0x41d6a70b),
			run(0xbe6c6b99), run(0xbf6ff227), run(0xc0d87bd4), run(0xc2722fd9),
		}),
	}
}

// genVerifyCombos are the per-combo tallies of genVerifySlices, measured
// when every unit still covered one scheme and asked the oracle once per
// (input, scheme). The logarithms' residuals near x = 1 at widths 27/32
// pin the first-failure renderings.
var genVerifyCombos = []ComboTotal{
	{"log", "rlibm", "float32", 61440, 72, "log(0.94637835) 0x3f7245da w=32 rtz: got -0.055112842470407486 want -0.05511283874511719"},
	{"log", "rlibm-knuth", "float32", 61440, 72, "log(0.94637835) 0x3f7245da w=32 rtz: got -0.055112842470407486 want -0.05511283874511719"},
	{"log", "rlibm-estrin", "float32", 61440, 72, "log(0.94637835) 0x3f7245da w=32 rtz: got -0.055112842470407486 want -0.05511283874511719"},
	{"log", "rlibm-estrin-fma", "float32", 61440, 72, "log(0.94637835) 0x3f7245da w=32 rtz: got -0.055112842470407486 want -0.05511283874511719"},
	{"log2", "rlibm", "float32", 61440, 37, "log2(0.94639057) 0x3f7246a7 w=32 rtz: got -0.07949239760637283 want -0.07949239015579224"},
	{"log2", "rlibm-knuth", "float32", 61440, 37, "log2(0.94639057) 0x3f7246a7 w=32 rtz: got -0.07949239760637283 want -0.07949239015579224"},
	{"log2", "rlibm-estrin", "float32", 61440, 37, "log2(0.94639057) 0x3f7246a7 w=32 rtz: got -0.07949239760637283 want -0.07949239015579224"},
	{"log2", "rlibm-estrin-fma", "float32", 61440, 37, "log2(0.94639057) 0x3f7246a7 w=32 rtz: got -0.07949239760637283 want -0.07949239015579224"},
	{"log10", "rlibm", "float32", 61440, 503, "log10(0.9463706) 0x3f724558 w=32 rne: got -0.02393876016139984 want -0.023938758298754692"},
	{"log10", "rlibm-knuth", "float32", 61440, 503, "log10(0.9463706) 0x3f724558 w=32 rne: got -0.02393876016139984 want -0.023938758298754692"},
	{"log10", "rlibm-estrin", "float32", 61440, 503, "log10(0.9463706) 0x3f724558 w=32 rne: got -0.02393876016139984 want -0.023938758298754692"},
	{"log10", "rlibm-estrin-fma", "float32", 61440, 503, "log10(0.9463706) 0x3f724558 w=32 rne: got -0.02393876016139984 want -0.023938758298754692"},
	{"exp", "rlibm", "float32", 61440, 2, "exp(-60.54733) 0xc2723077 w=32 rne: got 5.065579784169341e-27 want 5.065579398983352e-27"},
	{"exp", "rlibm-knuth", "float32", 61440, 2, "exp(-60.54733) 0xc2723077 w=32 rne: got 5.065579784169341e-27 want 5.065579398983352e-27"},
	{"exp", "rlibm-estrin", "float32", 61440, 2, "exp(-60.54733) 0xc2723077 w=32 rne: got 5.065579784169341e-27 want 5.065579398983352e-27"},
	{"exp", "rlibm-estrin-fma", "float32", 61440, 2, "exp(-60.54733) 0xc2723077 w=32 rne: got 5.065579784169341e-27 want 5.065579398983352e-27"},
	{"exp2", "rlibm", "float32", 61440, 0, ""},
	{"exp2", "rlibm-knuth", "float32", 61440, 0, ""},
	{"exp2", "rlibm-estrin", "float32", 61440, 0, ""},
	{"exp2", "rlibm-estrin-fma", "float32", 61440, 0, ""},
	{"exp10", "rlibm", "float32", 61440, 0, ""},
	{"exp10", "rlibm-knuth", "float32", 61440, 2, "exp10(0.10551824) 0x3dd819f2 w=32 rne: got 1.2750235795974731 want 1.2750236988067627"},
	{"exp10", "rlibm-estrin", "float32", 61440, 2, "exp10(0.10551824) 0x3dd819f2 w=32 rne: got 1.2750235795974731 want 1.2750236988067627"},
	{"exp10", "rlibm-estrin-fma", "float32", 61440, 2, "exp10(0.10551824) 0x3dd819f2 w=32 rne: got 1.2750235795974731 want 1.2750236988067627"},
}

// runGenVerifySlices runs both slices and concatenates their combos; an
// override, when non-nil, replaces implementations as implOverride does.
func runGenVerifySlices(t *testing.T, override func(fn, scheme string) func(float32) float64) []ComboTotal {
	t.Helper()
	var combos []ComboTotal
	for _, cfg := range genVerifySlices() {
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Plan: plan, Workers: 2, implOverride: override}
		totals, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(cfg.Funcs) * 8 * 512); totals.OracleQueries != want {
			t.Errorf("%v: %d oracle values for %d inputs", cfg.Funcs, totals.OracleQueries, want)
		}
		combos = append(combos, totals.Combos...)
	}
	return combos
}

// TestGenVerifySliceParity: checking the four schemes against one oracle
// value per input reports, combo by combo, the checked and wrong counts
// and first failures that one oracle query per (input, scheme) reported.
func TestGenVerifySliceParity(t *testing.T) {
	got := runGenVerifySlices(t, nil)
	if len(got) != len(genVerifyCombos) {
		t.Fatalf("%d combos, want %d", len(got), len(genVerifyCombos))
	}
	for i, want := range genVerifyCombos {
		if got[i] != want {
			t.Errorf("combo %d:\ngot  %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestOneWrongSchemeLeavesOthersAlone: a deliberately wrong kernel on one
// scheme is tallied against that scheme only; the three schemes checked
// against the same oracle values keep their exact tallies.
func TestOneWrongSchemeLeavesOthersAlone(t *testing.T) {
	const broken = "rlibm-knuth"
	override := func(fn, scheme string) func(float32) float64 {
		if scheme != broken {
			return nil
		}
		base, err := (&Engine{Plan: &Plan{}}).implFor(fn, scheme)
		if err != nil {
			panic(err)
		}
		return func(x float32) float64 {
			y := base(x)
			if math.Float32bits(x)%7 == 0 {
				return y * 1.25
			}
			return y
		}
	}
	got := runGenVerifySlices(t, override)
	if len(got) != len(genVerifyCombos) {
		t.Fatalf("%d combos, want %d", len(got), len(genVerifyCombos))
	}
	for i, want := range genVerifyCombos {
		c := got[i]
		if want.Scheme != broken {
			if c != want {
				t.Errorf("untouched scheme, combo %d:\ngot  %+v\nwant %+v", i, c, want)
			}
			continue
		}
		if c.Checked != want.Checked || c.Wrong <= want.Wrong || c.First == want.First {
			t.Errorf("broken scheme %s/%s: checked %d wrong %d first %q; want checked %d and more than %d wrong at a new first failure",
				c.Fn, c.Scheme, c.Checked, c.Wrong, c.First, want.Checked, want.Wrong)
		}
	}
}
