// Mlprecision: the mixed-precision ML scenario the paper's introduction
// motivates — new formats like bfloat16 and tensorfloat32 trade range for
// precision, and a single correctly rounded implementation must serve all
// of them under every rounding mode.
//
// This example computes a numerically delicate softmax + cross-entropy in
// reduced precision three ways:
//
//  1. float64 math library, truncated to the small format at the end
//     (the "just cast it" approach — wrong for some inputs by double
//     rounding),
//  2. this library's correctly rounded functions rounded directly to the
//     small format (always the closest representable value), and
//  3. the float64 reference.
//
// It also shows directed rounding producing certified bounds: evaluating
// with RTN and RTP brackets the true value — a poor man's interval
// arithmetic that only works when every elementary function is correctly
// rounded in every mode.
//
// Run with: go run ./examples/mlprecision
package main

import (
	"fmt"
	"math"

	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/oracle"
	"rlibm/pkg/rlibm"
)

func main() {
	logits := []float32{2.0, 1.0, 0.1, -1.5, 3.3}
	target := 4 // index of the "true" class

	fmt.Println("softmax cross-entropy in bfloat16:")
	format := fp.Bfloat16

	// Reference in float64.
	ref := crossEntropy64(logits, target)
	fmt.Printf("  float64 reference:             %.9g\n", ref)

	// Correctly rounded at every elementary-function call.
	cr := crossEntropySmall(logits, target, format, fp.RNE)
	fmt.Printf("  correctly rounded bfloat16:    %.9g\n", cr)

	// Certified bounds via directed rounding.
	lo := crossEntropySmall(logits, target, format, fp.RTN)
	hi := crossEntropySmall(logits, target, format, fp.RTP)
	fmt.Printf("  certified bracket [RTN, RTP]:  [%.9g, %.9g]\n", lo, hi)
	if !(lo <= ref && ref <= hi) {
		fmt.Println("  BRACKET VIOLATION — should never happen with correct rounding")
	} else {
		fmt.Println("  (the float64 reference falls inside the bracket, as it must)")
	}

	// Where the naive path goes wrong: double rounding. Scan for bfloat16
	// inputs where rounding exp(x) from a float64 result disagrees with the
	// correctly rounded bfloat16 value.
	fmt.Println("\ndouble-rounding mismatches for exp(x) into bfloat16 (first 5):")
	found := 0
	f := fp.Bfloat16
	f.FiniteValues(func(b uint64, v float64) bool {
		if v == 0 || v < -80 || v > 80 {
			return true
		}
		naive := f.Round(math.Exp(v), fp.RNE)
		correct := libm.RoundTo(libm.ExpDouble(float32(v), libm.SchemeEstrinFMA), f, fp.RNE)
		if naive != correct {
			want := oracle.Correct(oracle.Exp, v, f, fp.RNE)
			fmt.Printf("  exp(%-12g): naive %-13g correct %-13g (oracle %g)\n", v, naive, correct, want)
			found++
		}
		return found < 5
	})
	if found == 0 {
		fmt.Println("  none in this sweep — double rounding failures are rare but real;")
		fmt.Println("  see examples/allformats for a constructed one.")
	}

	// Narrow precisions via the public API. A precision-aware Evaluator
	// rounds the full polynomial's result once to the requested format —
	// the same rounding as above, at tf32 or bfloat16 — so every result is
	// the correctly rounded value of its format, for every float32 input,
	// including the ones the narrow format cannot represent, such as 3.3 and
	// 1.0275289. One kernel serves all three.
	fmt.Println("\nnarrow precisions via pkg/rlibm (one kernel, three formats):")
	fmt.Printf("  %-10s %-14s %-14s %-14s\n", "x", "float32", "tf32", "bf16")
	precs := []rlibm.Precision{rlibm.PrecFloat32, rlibm.PrecTF32, rlibm.PrecBfloat16}
	evs := make([]*rlibm.Evaluator, len(precs))
	for i, p := range precs {
		ev, err := rlibm.New(rlibm.FuncExp, rlibm.EstrinFMA, rlibm.WithPrecision(p))
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		evs[i] = ev
	}
	for _, x := range []float32{0.5, 1.0, -2.25, 3.3, 1.0275289} {
		fmt.Printf("  %-10g", x)
		for _, ev := range evs {
			fmt.Printf(" %-14g", ev.Eval(x))
		}
		fmt.Println()
	}
	fmt.Println("  (each column is correctly rounded for its own format; the bf16")
	fmt.Println("   column's float32 bits always end in sixteen zero bits)")
}

// crossEntropy64 is the float64 reference: -log(softmax(logits)[target]).
func crossEntropy64(logits []float32, target int) float64 {
	maxL := float64(logits[0])
	for _, l := range logits[1:] {
		maxL = math.Max(maxL, float64(l))
	}
	sum := 0.0
	for _, l := range logits {
		sum += math.Exp(float64(l) - maxL)
	}
	return math.Log(sum) - (float64(logits[target]) - maxL)
}

// crossEntropySmall evaluates the same expression with every elementary
// function correctly rounded into `format` under `mode`, and intermediate
// arithmetic rounded to the format as well.
func crossEntropySmall(logits []float32, target int, format fp.Format, mode fp.Mode) float64 {
	rnd := func(v float64) float64 { return format.Round(v, mode) }
	maxL := float64(logits[0])
	for _, l := range logits[1:] {
		maxL = math.Max(maxL, float64(l))
	}
	sum := 0.0
	for _, l := range logits {
		e := libm.RoundTo(libm.ExpDouble(float32(rnd(float64(l)-maxL)), libm.SchemeEstrinFMA), format, mode)
		sum = rnd(sum + e)
	}
	logSum := libm.RoundTo(libm.LogDouble(float32(sum), libm.SchemeEstrinFMA), format, mode)
	return rnd(logSum - rnd(float64(logits[target])-maxL))
}
