package rlibm

import (
	"fmt"
	"strings"
)

// Precision selects the output precision an Evaluator serves. A narrow
// precision is exactly a post-hoc rounding of the full result: the full
// kernel's double lies in the 34-bit round-to-odd interval of the exact
// value, so rounding it once to the narrow format (RLIBM-ALL) gives the
// correctly rounded narrow result for every float32 input, whether or not
// the narrow format can represent it.
type Precision int

const (
	// PrecFloat32 is the default full precision: the correctly rounded IEEE
	// binary32 result under round-to-nearest-even.
	PrecFloat32 Precision = iota
	// PrecTF32 is the FP16-class precision: the 19-bit format with an 8-bit
	// exponent and 11-bit significand precision (NVIDIA's TensorFloat32
	// layout). IEEE binary16's 5-bit exponent falls outside the generated
	// tables' 8-bit-exponent guarantee, so "fp16" resolves here.
	PrecTF32
	// PrecBfloat16 is bfloat16: 8-bit exponent, 8-bit significand precision.
	PrecBfloat16

	// NumPrecisions is the number of precisions.
	NumPrecisions = 3
)

// Precisions lists the supported precisions from widest to narrowest.
var Precisions = [NumPrecisions]Precision{PrecFloat32, PrecTF32, PrecBfloat16}

// precNames holds the canonical names, which are also the wire names the
// serving layer accepts ("prec" JSON field, binary query parameter, stream
// frame precision byte = the Precision value itself).
var precNames = [NumPrecisions]string{"float32", "tf32", "bf16"}

// precAliases maps every accepted (lower-cased) spelling to its precision.
var precAliases = map[string]Precision{
	"float32": PrecFloat32, "f32": PrecFloat32, "fp32": PrecFloat32, "full": PrecFloat32,
	"tf32": PrecTF32, "tensorfloat32": PrecTF32, "fp16": PrecTF32, "float16": PrecTF32, "f16": PrecTF32,
	"bf16": PrecBfloat16, "bfloat16": PrecBfloat16,
}

// String returns the precision's canonical name ("float32", "tf32", "bf16").
func (p Precision) String() string {
	if p.valid() {
		return precNames[p]
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// Bits returns the total width of the precision's output format (32, 19,
// 16). All three formats share float32's 8-bit exponent.
func (p Precision) Bits() int {
	switch p {
	case PrecTF32:
		return 19
	case PrecBfloat16:
		return 16
	}
	return 32
}

func (p Precision) valid() bool { return p >= PrecFloat32 && p < NumPrecisions }

// ParsePrecision resolves a precision name, case-insensitively. It accepts
// the canonical names ("float32", "tf32", "bf16") and common aliases
// ("f32", "fp32", "full"; "fp16", "float16", "f16", "tensorfloat32";
// "bfloat16").
func ParsePrecision(name string) (Precision, error) {
	if p, ok := precAliases[strings.ToLower(name)]; ok {
		return p, nil
	}
	return 0, errUnknownPrecision(name)
}
