// Quickstart: call the correctly rounded elementary functions through the
// public pkg/rlibm API and compare them with Go's math package.
//
// The library's headline property (from the CGO 2023 paper): one polynomial
// approximation per function produces the correctly rounded result for every
// floating-point format from 10 to 32 bits and all five IEEE rounding modes.
// The float32 entry points below are the common case; see the allformats
// example for the multi-format API and mlprecision for the narrow
// precisions.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"rlibm/pkg/rlibm"
)

func main() {
	inputs := []float32{0.5, 1.0, 2.7182817, -3.5, 100, 1e-4}

	fmt.Println("correctly rounded float32 results (Estrin+FMA variant):")
	fmt.Printf("%-12s %-14s %-14s %-14s\n", "x", "rlibm exp(x)", "math.Exp", "equal-bits?")
	for _, x := range inputs {
		got := rlibm.Exp(x)
		ref := float32(math.Exp(float64(x)))
		fmt.Printf("%-12g %-14g %-14g %v\n", x, got, ref, got == ref)
	}

	fmt.Println("\nall six functions at x = 0.7:")
	x := float32(0.7)
	for _, f := range rlibm.Funcs {
		ev, err := rlibm.New(f, rlibm.EstrinFMA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s(%g) = %g\n", f, x, ev.Eval(x))
	}

	fmt.Println("\nthe four paper configurations agree bit-for-bit on the result")
	fmt.Println("(they differ only in evaluation speed):")
	evals := make([]*rlibm.Evaluator, 0, rlibm.NumSchemes)
	for _, s := range rlibm.Schemes {
		ev, err := rlibm.New(rlibm.FuncExp2, s)
		if err != nil {
			log.Fatal(err)
		}
		evals = append(evals, ev)
	}
	for _, x := range inputs {
		fmt.Printf("  exp2(%-8g):", x)
		first := evals[0].Eval(x)
		for _, ev := range evals {
			y := ev.Eval(x)
			fmt.Printf(" %s=%v", ev.Scheme(), y)
			if math.Float32bits(y) != math.Float32bits(first) {
				fmt.Print("  MISMATCH — this should never happen")
			}
		}
		fmt.Println()
	}

	fmt.Println("\nbatch evaluation: one dispatch, a whole slice, bit-identical to scalar:")
	ev, err := rlibm.New(rlibm.FuncLog2, rlibm.EstrinFMA)
	if err != nil {
		log.Fatal(err)
	}
	dst := make([]float32, len(inputs))
	ev.EvalBatch(dst, inputs)
	for i, x := range inputs {
		fmt.Printf("  log2(%-10g) = %g\n", x, dst[i])
	}

	fmt.Println("\nspecial values follow IEEE semantics:")
	fmt.Printf("  exp(+Inf) = %g, exp(-Inf) = %g, exp(NaN) = %g\n",
		rlibm.Exp(float32(math.Inf(1))), rlibm.Exp(float32(math.Inf(-1))), rlibm.Exp(float32(math.NaN())))
	fmt.Printf("  log(0) = %g, log(-1) = %g\n", rlibm.Log(0), rlibm.Log(-1))
}
