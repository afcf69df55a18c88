// Allformats: one polynomial, every representation and rounding mode.
//
// This example demonstrates the RLibm-ALL property the paper builds on
// (Section 2.2 and Figures 3-5):
//
//  1. the library's raw double result rounds correctly to bfloat16,
//     tensorfloat32, and every other 10..32-bit format under all five IEEE
//     rounding modes, and
//  2. the naive alternative — double rounding through a round-to-nearest
//     intermediate — produces wrong results for some inputs, which is why
//     round-to-odd at 34 bits is essential.
//
// Run with: go run ./examples/allformats
package main

import (
	"fmt"
	"math"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
	"rlibm/pkg/rlibm"
)

// kernel returns the raw double kernel of f (Estrin+FMA, full precision):
// the double every format and rounding mode below is rounded from.
func kernel(f rlibm.Func) func(float64) float64 {
	ev, err := rlibm.New(f, rlibm.EstrinFMA)
	if err != nil {
		panic(err)
	}
	return ev.Kernel()
}

func main() {
	x := float32(2.75)
	d := kernel(rlibm.FuncExp2)(float64(x))
	fmt.Printf("exp2(%g): raw double result %.17g\n\n", x, d)

	formats := []struct {
		name string
		f    fp.Format
	}{
		{"bfloat16", fp.Bfloat16},
		{"tensorfloat32", fp.TensorFloat32},
		{"fp24_e8", fp.Format{Bits: 24, ExpBits: 8}},
		{"float32", fp.Float32},
	}
	fmt.Printf("%-14s", "format")
	for _, m := range fp.StandardModes {
		fmt.Printf(" %-13s", m)
	}
	fmt.Println()
	for _, f := range formats {
		fmt.Printf("%-14s", f.name)
		for _, m := range fp.StandardModes {
			got := f.f.Round(d, m)
			want := oracle.Correct(oracle.Exp2, float64(x), f.f, m)
			mark := ""
			if got != want {
				mark = "  <-- WRONG"
			}
			fmt.Printf(" %-13g%s", got, mark)
		}
		fmt.Println()
	}

	// Figure 3: why rounding twice with round-to-nearest fails. Construct a
	// real value just above the midpoint of two adjacent float32 values;
	// the FP34 round-to-nearest intermediate collapses it onto the midpoint
	// and the float32 tie then resolves the wrong way.
	fmt.Println("\ndouble-rounding failure (Figure 3):")
	y := 1.0
	succ := fp.Float32.NextUp(y)
	mid := (y + succ) / 2
	v := math.Nextafter(mid, 2) // strictly above the midpoint

	direct := fp.Float32.Round(v, fp.RNE)
	viaRN := fp.Float32.Round(fp.FP34.Round(v, fp.RNE), fp.RNE)
	viaRO := fp.Float32.Round(fp.FP34.Round(v, fp.RTO), fp.RNE)
	fmt.Printf("  real value v      = %.20g\n", v)
	fmt.Printf("  direct to float32 = %.9g (correct)\n", direct)
	fmt.Printf("  via FP34-RN       = %.9g (wrong: tie broke to even)\n", viaRN)
	fmt.Printf("  via FP34-RO       = %.9g (round-to-odd preserves the sticky information)\n", viaRO)

	// Exhaustive-by-sampling confirmation across formats and modes.
	fmt.Println("\nsampling 2000 inputs across formats and modes:")
	log2 := kernel(rlibm.FuncLog2)
	wrong := 0
	checked := 0
	for i := 0; i < 2000; i++ {
		xi := float32(math.Ldexp(1+float64(i)/2000, i%40-20))
		di := log2(float64(xi))
		for _, f := range formats {
			for _, m := range fp.StandardModes {
				got := f.f.Round(di, m)
				want := oracle.Correct(oracle.Log2, float64(xi), f.f, m)
				checked++
				if math.Float64bits(got) != math.Float64bits(want) {
					wrong++
				}
			}
		}
	}
	fmt.Printf("  %d comparisons, %d wrong\n", checked, wrong)
}
