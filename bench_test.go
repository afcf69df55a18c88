// Package rlibm_test hosts the repository-level benchmark harness: one
// benchmark per evaluated quantity in the paper.
//
//   - BenchmarkTable2 regenerates Table 2 / Figure 6: the latency of each of
//     the 24 generated implementations (6 functions x 4 evaluation schemes)
//     over dense input sweeps. Speedups are the ratios against the
//     corresponding */rlibm-horner rows.
//   - BenchmarkPolyEval is the Section 4 ablation: raw polynomial-evaluation
//     schemes at fixed degrees, isolating Horner's serial chain against
//     Estrin's instruction-level parallelism and the FMA variants.
//   - BenchmarkOracle and BenchmarkGenerate document the cost of the offline
//     pipeline pieces (not a paper table, but useful for regressions).
package rlibm_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// sweep builds a deterministic input sweep covering the function's
// polynomial-path domain.
func sweep(name string, n int) []float32 {
	rng := rand.New(rand.NewSource(7))
	out := make([]float32, n)
	for i := range out {
		switch name {
		case "exp":
			out[i] = float32(rng.Float64()*176 - 87)
		case "exp2":
			out[i] = float32(rng.Float64()*252 - 126)
		case "exp10":
			out[i] = float32(rng.Float64()*76 - 38)
		default:
			out[i] = float32(math.Ldexp(1+rng.Float64(), rng.Intn(252)-126))
		}
	}
	return out
}

// BenchmarkTable2 regenerates the measurements behind Table 2 and Figure 6
// using the straight-line function backend — specialized code per
// implementation, like the artifact's generated C, so the scheme deltas are
// not diluted by dispatch overhead. Calls are serialized through a data
// dependence (each input nudged by at most one double ulp derived from the
// previous result), measuring per-call latency the way the paper's rdtscp
// harness does; an unchained loop would overlap iterations in the
// out-of-order core and hide the dependence-chain differences between the
// schemes.
// Run with: go test -bench BenchmarkTable2 -benchmem
func BenchmarkTable2(b *testing.B) {
	for _, name := range libm.FuncNames {
		in := make([]float64, 1<<14)
		for i, v := range sweep(name, 1<<14) {
			in[i] = float64(v)
		}
		for _, s := range libm.Schemes {
			impl := libm.GeneratedFuncs[name+"/"+s.String()]
			b.Run(name+"/"+s.String(), func(b *testing.B) {
				var prev float64
				for i := 0; i < b.N; i++ {
					prev = impl(in[i&(1<<14-1)] + math.Float64frombits(math.Float64bits(prev)&1))
				}
				sinkF64 = prev
			})
		}
	}
}

var sinkF64 float64

// BenchmarkPolyEval isolates the evaluation schemes on a fixed degree-5
// polynomial: the Section 4 instruction-level-parallelism ablation.
func BenchmarkPolyEval(b *testing.B) {
	coeffs := poly.Poly{1, math.Ln2, 0.24, 0.055, 0.0096, 0.0013}
	var a5 [6]float64
	copy(a5[:], coeffs)
	adapted, err := poly.Adapt5(a5)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]float64, 1<<12)
	rng := rand.New(rand.NewSource(9))
	for i := range in {
		in[i] = rng.Float64()/64 - 1.0/128
	}
	mask := len(in) - 1
	// dep derives a <=1-ulp input nudge from the previous result,
	// serializing the calls (latency measurement, as in the paper).
	dep := func(prev float64) float64 { return math.Float64frombits(math.Float64bits(prev) & 1) }

	b.Run("horner/deg5", func(b *testing.B) {
		var prev float64
		for i := 0; i < b.N; i++ {
			prev = poly.EvalHorner(coeffs, in[i&mask]+dep(prev))
		}
		sinkF64 = prev
	})
	b.Run("horner-fma/deg5", func(b *testing.B) {
		var prev float64
		for i := 0; i < b.N; i++ {
			prev = poly.EvalHornerFMA(coeffs, in[i&mask]+dep(prev))
		}
		sinkF64 = prev
	})
	b.Run("knuth/deg5", func(b *testing.B) {
		var prev float64
		for i := 0; i < b.N; i++ {
			prev = poly.EvalAdapted5(&adapted, in[i&mask]+dep(prev))
		}
		sinkF64 = prev
	})
	b.Run("estrin/deg5", func(b *testing.B) {
		var prev float64
		for i := 0; i < b.N; i++ {
			prev = poly.EvalEstrin(coeffs, in[i&mask]+dep(prev))
		}
		sinkF64 = prev
	})
	b.Run("estrin-fma/deg5", func(b *testing.B) {
		var prev float64
		for i := 0; i < b.N; i++ {
			prev = poly.EvalEstrinFMA(coeffs, in[i&mask]+dep(prev))
		}
		sinkF64 = prev
	})
}

// BenchmarkOracle documents the per-input cost of the Ziv oracle — the
// pipeline's dominant offline cost (the role MPFR plays in the artifact).
func BenchmarkOracle(b *testing.B) {
	b.Run("exp2/fp34-rto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF64 = oracle.Correct(oracle.Exp2, 1.5+float64(i&255)/1024, fp.FP34, fp.RTO)
		}
	})
	b.Run("log2/fp34-rto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF64 = oracle.Correct(oracle.Log2, 1.5+float64(i&255)/1024, fp.FP34, fp.RTO)
		}
	})
}

// BenchmarkRounding measures the soft-float rounding primitives used
// throughout the pipeline.
func BenchmarkRounding(b *testing.B) {
	b.Run("round-float64-to-fp34-rto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF64 = fp.FP34.Round(1.0000001+float64(i&1023)*1e-9, fp.RTO)
		}
	})
	b.Run("round-float64-to-bfloat16-rne", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF64 = fp.Bfloat16.Round(1.0000001+float64(i&1023)*1e-9, fp.RNE)
		}
	})
}

// BenchmarkGenerate documents the offline cost of the full pipeline
// (oracle + intervals + LP + adapt + validate) at a small exhaustive width.
// Not a paper table; useful to track regressions in the generator.
func BenchmarkGenerate(b *testing.B) {
	for _, s := range []poly.Scheme{poly.Horner, poly.EstrinFMA} {
		b.Run("exp2/12bit/"+s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Generate(context.Background(), core.Config{
					Fn:     oracle.Exp2,
					Scheme: s,
					Input:  fp.Format{Bits: 12, ExpBits: 8},
					Seed:   1,
					// Serial: this benchmark tracks the single-thread cost.
					Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateWorkers measures the wall-clock scaling of the parallel
// pipeline on an exp-family function in its realistic shape — GenerateAll
// over all four evaluation schemes (the `rlibm-gen -scheme all` workflow).
// With Workers > 1 the oracle/interval collection shards over input bit
// patterns and the four scheme solve loops run concurrently, so on a
// multi-core machine wall-clock shrinks toward max(solve) + collect/N.
// Results are bit-identical for every worker count (see
// TestGenerateDeterministic). Run with:
//
//	go test -bench BenchmarkGenerateWorkers -benchtime 3x
func BenchmarkGenerateWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("exp2/all-schemes/14bit/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.GenerateAll(context.Background(), core.Config{
					Fn:      oracle.Exp2,
					Input:   fp.Format{Bits: 14, ExpBits: 8},
					Seed:    1,
					Workers: workers,
				}, poly.PaperSchemes)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
