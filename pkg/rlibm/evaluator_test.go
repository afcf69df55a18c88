package rlibm

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rlibm/internal/fp"
)

// TestNewValidates: New is the validation sink for external input — invalid
// components come back as errors enumerating the valid set, never panics or
// nil evaluators.
func TestNewValidates(t *testing.T) {
	if _, err := New(Func(99), EstrinFMA); err == nil || !strings.Contains(err.Error(), "exp2") {
		t.Errorf("New(Func(99), ...) error = %v, want enumeration of valid funcs", err)
	}
	if _, err := New(FuncExp, Scheme(-1)); err == nil || !strings.Contains(err.Error(), "rlibm-estrin-fma") {
		t.Errorf("New(..., Scheme(-1)) error = %v, want enumeration of valid schemes", err)
	}
	if _, err := New(FuncExp, Horner, WithPrecision(Precision(7))); err == nil || !strings.Contains(err.Error(), "bf16") {
		t.Errorf("New with bad precision error = %v, want enumeration of valid precisions", err)
	}
	e, err := New(FuncLog2, Estrin)
	if err != nil {
		t.Fatalf("New(log2, estrin) failed: %v", err)
	}
	if e.Func() != FuncLog2 || e.Scheme() != Estrin || e.Prec() != PrecFloat32 {
		t.Errorf("accessors = %v/%v/%v", e.Func(), e.Scheme(), e.Prec())
	}
}

// TestEvaluatorFullPrecisionMatchesPackage: the default-precision Evaluator is
// a resolved-dispatch view of the package-level API — identical bits.
func TestEvaluatorFullPrecisionMatchesPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, f := range Funcs {
		for _, s := range Schemes {
			e, err := New(f, s)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 256; i++ {
				x := math.Float32frombits(rng.Uint32())
				if got, want := e.Eval(x), Eval(f, s, x); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%v/%v: Evaluator.Eval(%g) = %b, Eval = %b", f, s, x, got, want)
				}
			}
		}
	}
}

// TestEvaluatorNarrowOutputsRepresentable: every result of a narrow-precision
// Evaluator must be exactly a value of the narrow output format (bfloat16 and
// tf32 embed exactly in float32, so re-rounding must be the identity).
func TestEvaluatorNarrowOutputsRepresentable(t *testing.T) {
	formats := map[Precision]fp.Format{PrecTF32: fp.TensorFloat32, PrecBfloat16: fp.Bfloat16}
	rng := rand.New(rand.NewSource(23))
	for _, p := range []Precision{PrecTF32, PrecBfloat16} {
		format := formats[p]
		for _, f := range Funcs {
			for _, s := range Schemes {
				e, err := New(f, s, WithPrecision(p))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 512; i++ {
					x := math.Float32frombits(rng.Uint32())
					y := e.Eval(x)
					if math.IsNaN(float64(y)) {
						continue
					}
					r := format.Round(float64(y), fp.RNE)
					if math.Float32bits(float32(r)) != math.Float32bits(y) {
						t.Fatalf("%v/%v/%v: Eval(%g) = %x not representable in %v",
							f, s, p, x, math.Float32bits(y), format)
					}
				}
			}
		}
	}
}

// TestEvaluatorBatchMatchesScalar: Evaluator.EvalBatch is bit-identical to
// per-element Evaluator.Eval at every precision, including across the fan-out
// threshold.
func TestEvaluatorBatchMatchesScalar(t *testing.T) {
	n := 2048
	if !testing.Short() {
		n = fanOutThreshold + 100 // exercise the fan-out path too
	}
	rng := rand.New(rand.NewSource(29))
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(rng.Float64()*200 - 100)
	}
	dst := make([]float32, n)
	for _, p := range Precisions {
		for _, f := range Funcs {
			e, err := New(f, EstrinFMA, WithPrecision(p))
			if err != nil {
				t.Fatal(err)
			}
			e.EvalBatch(dst, src)
			for i, x := range src {
				if want := e.Eval(x); math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("%v/%v: batch(%g) = %b, scalar = %b", f, p, x, dst[i], want)
				}
			}
		}
	}
}

// TestEvaluatorBf16BatchExhaustive: the bfloat16 batch path answers
// representable inputs from the memo table, so it is checked over the ENTIRE
// bfloat16 input space — all 2^16 patterns, specials and subnormals included
// — against per-element scalar Eval, for every function and scheme. Batch
// and scalar must agree bit for bit (NaN payloads too).
func TestEvaluatorBf16BatchExhaustive(t *testing.T) {
	src := make([]float32, 1<<16)
	for i := range src {
		src[i] = math.Float32frombits(uint32(i) << 16)
	}
	dst := make([]float32, len(src))
	for _, f := range Funcs {
		for _, s := range Schemes {
			e, err := New(f, s, WithPrecision(PrecBfloat16))
			if err != nil {
				t.Fatal(err)
			}
			e.EvalBatch(dst, src)
			for i, x := range src {
				if want := e.Eval(x); math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("%v/%v(%#08x): batch %#08x, scalar %#08x", f, s,
						math.Float32bits(x), math.Float32bits(dst[i]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestEvaluatorBatchZeroAllocs: the resolved-dispatch batch path keeps the
// zero-allocation property of the package-level EvalBatch below the fan-out
// threshold, at both narrow precisions and on every backend.
func TestEvaluatorBatchZeroAllocs(t *testing.T) {
	src := make([]float32, 1024)
	for i := range src {
		src[i] = float32(i%200)/8 - 12.3
	}
	dst := make([]float32, len(src))
	for _, p := range []Precision{PrecTF32, PrecBfloat16} {
		backends, err := Backends(FuncExp2, EstrinFMA, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			e, err := New(FuncExp2, EstrinFMA, WithPrecision(p), WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(20, func() { e.EvalBatch(dst, src) }); avg != 0 {
				t.Errorf("%v/%v: Evaluator.EvalBatch allocates %.1f objects per call on the inline path", p, b, avg)
			}
		}
	}
}

// TestParsePrecision: canonical names, aliases, case-insensitivity, and the
// enumerating error.
func TestParsePrecision(t *testing.T) {
	cases := map[string]Precision{
		"float32": PrecFloat32, "FP32": PrecFloat32, "full": PrecFloat32, "f32": PrecFloat32,
		"tf32": PrecTF32, "TensorFloat32": PrecTF32, "fp16": PrecTF32, "Float16": PrecTF32, "f16": PrecTF32,
		"bf16": PrecBfloat16, "BFLOAT16": PrecBfloat16,
	}
	for name, want := range cases {
		if got, err := ParsePrecision(name); err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePrecision("int8"); err == nil || !strings.Contains(err.Error(), "float32, tf32, bf16") {
		t.Errorf("ParsePrecision(int8) error = %v, want enumeration", err)
	}
	for _, p := range Precisions {
		if got, err := ParsePrecision(p.String()); err != nil || got != p {
			t.Errorf("ParsePrecision(%v.String()) = %v, %v", p, got, err)
		}
	}
	if PrecFloat32.Bits() != 32 || PrecTF32.Bits() != 19 || PrecBfloat16.Bits() != 16 {
		t.Error("Precision.Bits mismatch")
	}
}

// TestParseCaseInsensitive: the function and scheme parsers fold case so URL
// components like /v1/eval/EXP2/RLIBM-ESTRIN-FMA resolve.
func TestParseCaseInsensitive(t *testing.T) {
	if f, err := ParseFunc("EXP2"); err != nil || f != FuncExp2 {
		t.Errorf("ParseFunc(EXP2) = %v, %v", f, err)
	}
	if f, err := ParseFunc("Log10"); err != nil || f != FuncLog10 {
		t.Errorf("ParseFunc(Log10) = %v, %v", f, err)
	}
	if s, err := ParseScheme("RLIBM-ESTRIN-FMA"); err != nil || s != EstrinFMA {
		t.Errorf("ParseScheme(RLIBM-ESTRIN-FMA) = %v, %v", s, err)
	}
	if s, err := ParseScheme("Knuth"); err != nil || s != Knuth {
		t.Errorf("ParseScheme(Knuth) = %v, %v", s, err)
	}
	if _, err := ParseFunc("sin"); err == nil || !strings.Contains(err.Error(), "exp, exp2") {
		t.Errorf("ParseFunc(sin) error = %v, want enumeration", err)
	}
}

// TestNarrowOffGridReplay: a narrow precision rounds the full kernel once,
// so float32 inputs the narrow format cannot represent are correctly rounded
// too. ln(1.0275289) (0x3f838611) at bfloat16 is 0.027099609375; a truncated
// polynomial verified only on the bfloat16 grid returned the next value up.
// Checked through Eval, through EvalBatch on every available backend, and
// through the fan-out path.
func TestNarrowOffGridReplay(t *testing.T) {
	x := math.Float32frombits(0x3f838611)
	const want = float32(0.027099609375)
	prev := SetMaxBatchWorkers(4)
	if prev == 0 {
		prev = runtime.GOMAXPROCS(0)
	}
	defer SetMaxBatchWorkers(prev)
	src := make([]float32, fanOutThreshold+fanOutChunk+3)
	for i := range src {
		src[i] = x
	}
	dst := make([]float32, len(src))
	for _, s := range Schemes {
		backends, err := Backends(FuncLog, s, PrecBfloat16)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			e, err := New(FuncLog, s, WithPrecision(PrecBfloat16), WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Eval(x); got != want {
				t.Errorf("%v/%v: Eval(%g) = %g, want %g", s, b, x, got, want)
			}
			for _, n := range []int{1, 9, len(src)} {
				clear(dst)
				e.EvalBatch(dst[:n], src[:n])
				for i, got := range dst[:n] {
					if got != want {
						t.Fatalf("%v/%v: EvalBatch n=%d [%d] = %g, want %g", s, b, n, i, got, want)
					}
				}
			}
		}
	}
}
