package rlibm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/libm"
)

// TestBatchMatchesScalar exhaustively compares the batch kernels against
// per-element scalar calls over every input of small formats (all bit
// patterns, specials included), for every function and scheme. Batch
// evaluation must be bit-identical to the scalar path — the serving layer's
// correctness rests on this.
func TestBatchMatchesScalar(t *testing.T) {
	widths := []int{10, 12, 14}
	if testing.Short() {
		widths = []int{10, 14}
	}
	for _, bits := range widths {
		format := fp.Format{Bits: bits, ExpBits: 8}
		var src []float32
		format.Values(func(_ uint64, v float64) bool {
			src = append(src, float32(v))
			return true
		})
		dst := make([]float32, len(src))
		for _, f := range Funcs {
			for _, s := range Schemes {
				EvalBatch(f, s, dst, src)
				for i, x := range src {
					want := Eval(f, s, x)
					if math.Float32bits(dst[i]) != math.Float32bits(want) {
						t.Fatalf("%v/%v bits=%d: batch(%g) = %b, scalar = %b",
							f, s, bits, x, dst[i], want)
					}
				}
			}
		}
	}
}

// TestBatchMatchesLibm pins the public package to the internal library: the
// batch output must equal float32(libm.GeneratedFuncs[key](x)), the shipped
// scalar kernel, bit for bit, not merely be self-consistent with Eval.
func TestBatchMatchesLibm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32())
	}
	dst := make([]float32, len(src))
	for _, f := range Funcs {
		for _, s := range Schemes {
			EvalBatch(f, s, dst, src)
			scalar := libm.GeneratedFuncs[f.String()+"/"+s.String()]
			for i, x := range src {
				want := float32(scalar(float64(x)))
				if math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("%v/%v: batch(%g) = %b, libm = %b", f, s, x, dst[i], want)
				}
			}
		}
	}
}

// TestBatchFanOutIdentical drives a slice large enough to take the fan-out
// path under several worker caps and checks all outputs agree bit for bit
// with the inline path.
func TestBatchFanOutIdentical(t *testing.T) {
	n := fanOutThreshold + fanOutChunk/2 // large, deliberately not chunk-aligned
	rng := rand.New(rand.NewSource(11))
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(rng.Float64()*200 - 100)
	}
	want := make([]float32, n)
	prev := SetMaxBatchWorkers(1) // inline reference
	if prev == 0 {
		// Process-start default: the internal 0 means GOMAXPROCS but is no
		// longer accepted by the setter.
		prev = runtime.GOMAXPROCS(0)
	}
	Exp2Batch(want, src)
	got := make([]float32, n)
	for _, workers := range []int{2, 3, 8} {
		SetMaxBatchWorkers(workers)
		for i := range got {
			got[i] = 0
		}
		Exp2Batch(got, src)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("workers=%d: element %d differs", workers, i)
			}
		}
	}
	SetMaxBatchWorkers(prev)
}

// TestSetMaxBatchWorkersRejectsNonPositive: 0 used to silently mean
// "GOMAXPROCS", which masked miswired configuration (a zero-valued config
// struct would quietly pick a parallelism policy). Now it panics and leaves
// the cap unchanged.
func TestSetMaxBatchWorkersRejectsNonPositive(t *testing.T) {
	prev := SetMaxBatchWorkers(3)
	if prev == 0 {
		prev = runtime.GOMAXPROCS(0)
	}
	defer SetMaxBatchWorkers(prev)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetMaxBatchWorkers(%d) did not panic", n)
				}
			}()
			SetMaxBatchWorkers(n)
		}()
	}
	if got := SetMaxBatchWorkers(3); got != 3 {
		t.Errorf("cap changed by rejected call: got %d, want 3", got)
	}
}

// TestBatchZeroAllocs: below the fan-out threshold a batch call must not
// allocate — the serving hot path depends on it.
func TestBatchZeroAllocs(t *testing.T) {
	src := make([]float32, 1024)
	for i := range src {
		src[i] = float32(i%250) / 16
	}
	dst := make([]float32, len(src))
	if avg := testing.AllocsPerRun(20, func() { Log2Batch(dst, src) }); avg != 0 {
		t.Errorf("Log2Batch allocates %.1f objects per call on the inline path", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { EvalBatch(FuncExp, Horner, dst, src) }); avg != 0 {
		t.Errorf("EvalBatch allocates %.1f objects per call on the inline path", avg)
	}
}

// TestBatchDstShorterPanics: the length contract is enforced, not silently
// truncated.
func TestBatchDstShorterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EvalBatch with short dst did not panic")
		}
	}()
	EvalBatch(FuncExp, Horner, make([]float32, 3), make([]float32, 4))
}

// TestBatchExtraDstUntouched: only the first len(src) elements of dst are
// written.
func TestBatchExtraDstUntouched(t *testing.T) {
	src := []float32{1, 2}
	dst := []float32{9, 9, 9, 9}
	ExpBatch(dst, src)
	if dst[2] != 9 || dst[3] != 9 {
		t.Errorf("dst tail overwritten: %v", dst)
	}
}

// TestParseRoundTrips: names round-trip through the parsers, including the
// generator spellings for schemes.
func TestParseRoundTrips(t *testing.T) {
	for _, f := range Funcs {
		got, err := ParseFunc(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunc(%q) = %v, %v", f.String(), got, err)
		}
	}
	for _, s := range Schemes {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	for name, want := range map[string]Scheme{"horner": Horner, "knuth": Knuth, "estrin": Estrin, "estrin-fma": EstrinFMA} {
		if got, err := ParseScheme(name); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseFunc("tan"); err == nil {
		t.Error("ParseFunc(tan) succeeded")
	}
	if _, err := ParseScheme("neon"); err == nil {
		t.Error("ParseScheme(neon) succeeded")
	}
}

// BenchmarkBatchVsScalar quantifies what batching buys over per-call scalar
// dispatch (the quantity the serve BENCH JSON reports).
func BenchmarkBatchVsScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float32, 8192)
	for i := range src {
		src[i] = float32(rng.Float64()*200 - 100)
	}
	dst := make([]float32, len(src))
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Exp2Batch(dst, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = Eval(FuncExp2, EstrinFMA, x)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
	})
	runtime.KeepAlive(dst)
}
