package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/interval"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// sameResult asserts the generation artifacts that must be bit-for-bit
// reproducible: coefficients, special-case tables, and the merged constraint
// count.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Pieces) != len(b.Pieces) {
		t.Fatalf("%s: %d vs %d pieces", label, len(a.Pieces), len(b.Pieces))
	}
	for i := range a.Pieces {
		ca, cb := a.Pieces[i].Coeffs, b.Pieces[i].Coeffs
		if len(ca) != len(cb) {
			t.Fatalf("%s: piece %d has %d vs %d coefficients", label, i, len(ca), len(cb))
		}
		for j := range ca {
			if math.Float64bits(ca[j]) != math.Float64bits(cb[j]) {
				t.Errorf("%s: piece %d coeff %d: %x vs %x", label, i,
					j, math.Float64bits(ca[j]), math.Float64bits(cb[j]))
			}
		}
	}
	if len(a.Specials) != len(b.Specials) {
		t.Fatalf("%s: %d vs %d specials", label, len(a.Specials), len(b.Specials))
	}
	for xb, ya := range a.Specials {
		yb, ok := b.Specials[xb]
		if !ok || math.Float64bits(ya) != math.Float64bits(yb) {
			t.Errorf("%s: special %#x: %g vs %g (present=%v)", label, xb, ya, yb, ok)
		}
	}
	if a.Stats.Constraints != b.Stats.Constraints {
		t.Errorf("%s: %d vs %d constraints", label, a.Stats.Constraints, b.Stats.Constraints)
	}
	if a.Stats.Inputs != b.Stats.Inputs {
		t.Errorf("%s: %d vs %d inputs", label, a.Stats.Inputs, b.Stats.Inputs)
	}
}

// TestGenerateDeterministic is the regression test for the map-iteration
// nondeterminism bug: for a fixed Config.Seed, the generated coefficients,
// specials, and constraint counts must be byte-identical across repeated
// runs AND across worker counts (the sharded collection and parallel check
// reduce deterministically), and so must the count of oracle values
// computed.
func TestGenerateDeterministic(t *testing.T) {
	in := fp.Format{Bits: 12, ExpBits: 8}
	base := func(fn oracle.Func, scheme poly.Scheme) *Result {
		res, err := Generate(context.Background(), Config{Fn: fn, Scheme: scheme, Input: in, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatalf("%v/%v: %v", fn, scheme, err)
		}
		return res
	}
	for _, fn := range []oracle.Func{oracle.Exp2, oracle.Log2} {
		for _, scheme := range []poly.Scheme{poly.Horner, poly.EstrinFMA} {
			ref := base(fn, scheme)
			// Repeated run, same worker count: the Seed must fully determine
			// the output (this failed when LP constraints were fed in Go map
			// order).
			sameResult(t, fn.String()+"/rerun", ref, base(fn, scheme))
			// Parallel runs: sharded collection + parallel check must reduce
			// to the identical constraint system and trajectory, and compute
			// the same number of oracle values.
			for _, workers := range []int{2, 4} {
				par, err := Generate(context.Background(), Config{Fn: fn, Scheme: scheme, Input: in, Seed: 11, Workers: workers})
				if err != nil {
					t.Fatalf("%v/%v workers=%d: %v", fn, scheme, workers, err)
				}
				label := fmt.Sprintf("%v/workers%d", fn, workers)
				sameResult(t, label, ref, par)
				if par.Stats.OracleMisses != ref.Stats.OracleMisses {
					t.Errorf("%s: %d oracle values computed, %d with one worker", label, par.Stats.OracleMisses, ref.Stats.OracleMisses)
				}
			}
		}
	}
}

// TestGenerateAllConcurrentSchemesDeterministic: the concurrent scheme loop
// must produce, per scheme, exactly what a serial single-scheme run yields.
func TestGenerateAllConcurrentSchemesDeterministic(t *testing.T) {
	in := fp.Format{Bits: 12, ExpBits: 8}
	schemes := []poly.Scheme{poly.Horner, poly.Knuth, poly.Estrin, poly.EstrinFMA}
	all, err := GenerateAll(context.Background(), Config{Fn: oracle.Exp2, Input: in, Seed: 11, Workers: 4}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(schemes) {
		t.Fatalf("%d results for %d schemes", len(all), len(schemes))
	}
	for i, scheme := range schemes {
		if all[i].Scheme != scheme {
			t.Fatalf("result %d has scheme %v, want %v (order must match input)", i, all[i].Scheme, scheme)
		}
		solo, err := Generate(context.Background(), Config{Fn: oracle.Exp2, Scheme: scheme, Input: in, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		sameResult(t, scheme.String(), solo, all[i])
	}
}

// TestGenerateParallelCorrect: a Workers > 1 run still verifies exhaustively.
func TestGenerateParallelCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline test; skipped with -short")
	}
	in := fp.Format{Bits: 16, ExpBits: 8}
	res, err := Generate(context.Background(), Config{Fn: oracle.Exp2, Scheme: poly.EstrinFMA, Input: in, Seed: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Verify(in, 1, []int{10, 16}, fp.StandardModes)
	if rep.Wrong != 0 {
		t.Fatalf("%d/%d wrong: %s", rep.Wrong, rep.Checked, rep.FirstWrong)
	}
}

// TestDemoteItemBudget: the special-case budget is charged per source and
// demotion stops the moment it is exhausted — a single many-source work item
// must not blow past Config.MaxSpecials.
func TestDemoteItemBudget(t *testing.T) {
	cfg := Config{Fn: oracle.Exp2, Scheme: poly.Horner, Input: fp.Bfloat16, MaxSpecials: 2}
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	res := &Result{Fn: cfg.Fn, Target: cfg.Target, Specials: map[uint64]float64{}}
	it := &workItem{
		R:  0.25,
		Iv: interval.Interval{Lo: 1, Hi: 2},
		Sources: []uint64{
			math.Float64bits(0.5), math.Float64bits(0.75),
			math.Float64bits(1.25), math.Float64bits(1.5), math.Float64bits(1.75),
		},
	}
	budget, err := demoteItem(&cfg, res, it, 2)
	if err == nil {
		t.Fatal("demoting 5 sources on a budget of 2 must fail")
	}
	if len(res.Specials) != 2 {
		t.Fatalf("budget of 2 admitted %d specials", len(res.Specials))
	}
	if budget != 0 {
		t.Fatalf("remaining budget = %d, want 0", budget)
	}

	// Sources already in the table are free, and a fitting item unconstrains.
	it2 := &workItem{R: 0.5, Iv: interval.Interval{Lo: 1, Hi: 2},
		Sources: []uint64{math.Float64bits(0.5)}}
	if _, err := demoteItem(&cfg, res, it2, 0); err != nil {
		t.Fatalf("re-demoting an already-special source must be free: %v", err)
	}
	if !math.IsInf(it2.Iv.Lo, -1) || !math.IsInf(it2.Iv.Hi, 1) {
		t.Fatalf("demoted item not unconstrained: %v", it2.Iv)
	}
}

// TestSplitByValueNonFinite: non-finite reduced inputs make an equal-width
// partition meaningless; splitByValue must fall back to count-based split
// instead of silently producing empty or truncated chunkings.
func TestSplitByValueNonFinite(t *testing.T) {
	var items []*workItem
	for i := 0; i < 10; i++ {
		items = append(items, &workItem{R: float64(i)})
	}
	items[9].R = math.Inf(1)
	chunks := splitByValue(items, 3)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != len(items) {
		t.Fatalf("splitByValue dropped constraints: %d of %d", total, len(items))
	}
	if len(chunks) != len(split(items, 3)) {
		t.Errorf("non-finite input should fall back to split: got %d chunks, want %d",
			len(chunks), len(split(items, 3)))
	}
}

// TestParallelFor: the chunking covers [0, n) exactly once for any worker
// count.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 2048, 4097} {
			hits := make([]int32, n)
			parallelFor(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestVerifyFirstWrongDeterministic: Verify shards inputs by bit pattern
// modulo the CPU count, yet its FirstWrong must name the wrong input with
// the lowest bit pattern whatever GOMAXPROCS is. The perturbation plants
// wrong results at two inputs that a 4-way split puts in shards 2 and 1,
// so reporting the lowest-numbered failing shard would name the later one.
func TestVerifyFirstWrongDeterministic(t *testing.T) {
	in := fp.Format{Bits: 12, ExpBits: 8}
	res, err := Generate(context.Background(), Config{Fn: oracle.Exp2, Scheme: poly.Horner, Input: in, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := in.ToBits(1.5)
	base &^= 3 // a multiple of 4, so base+k lands in shard k mod 4
	early, late := in.FromBits(base+2), in.FromBits(base+5)
	if res.Specials == nil {
		res.Specials = map[uint64]float64{}
	}
	for _, x := range []float64{early, late} {
		res.Specials[math.Float64bits(x)] = 2 * res.Eval(x)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var reports []VerifyReport
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		reports = append(reports, res.Verify(in, 1, []int{10, 12}, fp.StandardModes))
	}
	one, four := reports[0], reports[1]
	if one.Wrong == 0 || !strings.Contains(one.FirstWrong, fmt.Sprintf("(%g)", early)) {
		t.Fatalf("GOMAXPROCS 1: %d wrong, first %q; want the first at %g", one.Wrong, one.FirstWrong, early)
	}
	if four != one {
		t.Fatalf("GOMAXPROCS 4 reports %+v, GOMAXPROCS 1 %+v", four, one)
	}
}
