package libm_test

import (
	"fmt"

	"rlibm/internal/fp"
	"rlibm/internal/libm"
)

// The common case: a kernel's double converted to float32 is the correctly
// rounded float32 result.
func ExampleGeneratedFuncs() {
	exp2 := libm.GeneratedFuncs["exp2/rlibm-estrin-fma"]
	fmt.Println(float32(exp2(0.5)))
	fmt.Println(float32(exp2(10)))
	fmt.Println(float32(exp2(-1)))
	// Output:
	// 1.4142135
	// 1024
	// 0.5
}

// One polynomial serves every format and rounding mode: take the kernel's
// raw double and round it wherever needed (the RLibm-ALL guarantee).
func ExampleGeneratedFuncs_allFormats() {
	d := libm.GeneratedFuncs["log2/rlibm-estrin-fma"](10)
	fmt.Println("bfloat16 rne:", fp.Bfloat16.Round(d, fp.RNE))
	fmt.Println("bfloat16 rtp:", fp.Bfloat16.Round(d, fp.RTP))
	fmt.Println("tf32     rne:", fp.TensorFloat32.Round(d, fp.RNE))
	fmt.Println("float32  rtz:", float32(fp.Float32.Round(d, fp.RTZ)))
	// Output:
	// bfloat16 rne: 3.328125
	// bfloat16 rtp: 3.328125
	// tf32     rne: 3.322265625
	// float32  rtz: 3.321928
}

// The four paper configurations return identical results; they differ only
// in evaluation speed.
func ExampleSchemes() {
	x := 0.25
	var ys []float32
	for _, s := range libm.Schemes {
		ys = append(ys, float32(libm.GeneratedFuncs["exp10/"+s.String()](x)))
	}
	fmt.Println(ys[0] == ys[1], ys[2] == ys[3])
	// Output:
	// true true
}
