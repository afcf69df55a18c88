package oracle

import (
	"math"
	"sync"
	"testing"

	"rlibm/internal/fp"
)

// TestCacheMatchesCorrect: every memoized answer is bit-identical to the
// uncached oracle, hits and misses add up, and repeated queries are hits.
func TestCacheMatchesCorrect(t *testing.T) {
	c := NewCache(8)
	xs := []float64{0.5, 1.5, 2.25, -0.75, 1.0 / 3}
	for _, x := range xs {
		want := Correct(Exp2, x, fp.FP34, fp.RTO)
		if got := c.Correct(Exp2, x, fp.FP34, fp.RTO); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cache exp2(%g) = %g, want %g", x, got, want)
		}
		if got := c.Correct(Exp2, x, fp.FP34, fp.RTO); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("second query exp2(%g) = %g, want %g", x, got, want)
		}
	}
	hits, misses := c.Stats()
	if misses != int64(len(xs)) || hits != int64(len(xs)) {
		t.Errorf("hits=%d misses=%d, want %d and %d", hits, misses, len(xs), len(xs))
	}
	if c.Len() != len(xs) {
		t.Errorf("Len() = %d, want %d", c.Len(), len(xs))
	}
}

// TestCacheKeySeparation: the same input under a different function, format,
// or mode must not collide.
func TestCacheKeySeparation(t *testing.T) {
	c := NewCache(4)
	const x = 1.5
	queries := []struct {
		fn Func
		t  fp.Format
		m  fp.Mode
	}{
		{Exp2, fp.FP34, fp.RTO},
		{Exp, fp.FP34, fp.RTO},
		{Exp2, fp.Bfloat16, fp.RTO},
		{Exp2, fp.FP34, fp.RNE},
	}
	for _, q := range queries {
		want := Correct(q.fn, x, q.t, q.m)
		if got := c.Correct(q.fn, x, q.t, q.m); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v(%g) in %v/%v: cache %g, oracle %g", q.fn, x, q.t, q.m, got, want)
		}
	}
	if c.Len() != len(queries) {
		t.Errorf("Len() = %d, want %d distinct entries", c.Len(), len(queries))
	}
}

// TestCacheConcurrent hammers one cache from many goroutines over an
// overlapping key set — run under -race this exercises the stripe locking —
// and verifies every answer against the serial oracle.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(0)
	const goroutines = 16
	const n = 64
	want := make([]float64, n)
	for i := range want {
		want[i] = Correct(Log2, 1+float64(i)/n, fp.FP34, fp.RTO)
	}
	var wg sync.WaitGroup
	errs := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the keys from its own offset so first
			// queries race on different stripes.
			for k := 0; k < 4*n; k++ {
				i := (k + g*5) % n
				got := c.Correct(Log2, 1+float64(i)/n, fp.FP34, fp.RTO)
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					errs[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != 0 {
			t.Errorf("goroutine %d saw %d wrong cached values", g, e)
		}
	}
	if c.Len() != n {
		t.Errorf("Len() = %d, want %d", c.Len(), n)
	}
	hits, misses := c.Stats()
	if hits+misses != goroutines*4*n {
		t.Errorf("hits+misses = %d, want %d", hits+misses, goroutines*4*n)
	}
	// Racing first queries may compute a key twice, but only the first
	// insert counts as a miss.
	if misses != n {
		t.Errorf("misses = %d, want one per key (%d)", misses, n)
	}
}
