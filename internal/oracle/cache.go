package oracle

import (
	"math"
	"sync"
	"sync/atomic"

	"rlibm/internal/fp"
)

// Cache memoizes Correct behind striped locks so concurrent pipeline workers
// never pay a second Ziv escalation for a repeated (function, input, format,
// mode) query. The generator hits the same inputs many times: the aligned
// pass re-enumerates stride-covered bit patterns, domain-cut neighbourhoods
// overlap the stride sweep, demotions re-ask for values the collection pass
// already computed, and GenerateAll shares one input set across schemes.
//
// The cache is safe for concurrent use. Striping (rather than one mutex, or
// sync.Map) keeps contention negligible when tens of workers classify
// disjoint input shards: the stripe is chosen by a mixed hash of the input
// bits, so neighbouring inputs land on different stripes.
type Cache struct {
	shards []cacheShard
	mask   uint64
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu sync.Mutex
	m  map[cacheKey]float64
}

// cacheKey identifies one oracle query. fp.Format and fp.Mode are small
// comparable value types, so the whole key is comparable.
type cacheKey struct {
	fn   Func
	bits uint64
	t    fp.Format
	mode fp.Mode
}

// defaultCacheShards is a power of two comfortably above any plausible
// worker count.
const defaultCacheShards = 64

// NewCache returns an empty cache with the given stripe count (rounded up to
// a power of two; <= 0 selects the default).
func NewCache(shards int) *Cache {
	if shards <= 0 {
		shards = defaultCacheShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]float64)
	}
	return c
}

// Correct is the memoized equivalent of the package-level Correct: the
// correctly rounded value of f(x) in format t under mode m.
func (c *Cache) Correct(f Func, x float64, t fp.Format, m fp.Mode) float64 {
	if y, ok := c.Lookup(f, x, t, m); ok {
		return y
	}
	// Compute outside the stripe lock: a Ziv escalation can take microseconds
	// and would serialize every other key on the stripe. Duplicated work on a
	// racing first query is deterministic (both goroutines compute the same
	// value), and Insert counts the second one as a hit.
	y := Correct(f, x, t, m)
	c.Insert(f, x, t, m, y)
	return y
}

// Lookup consults the cache without computing on a miss.
func (c *Cache) Lookup(f Func, x float64, t fp.Format, m fp.Mode) (float64, bool) {
	k := cacheKey{fn: f, bits: math.Float64bits(x), t: t, mode: m}
	sh := &c.shards[c.stripe(k)]
	sh.mu.Lock()
	y, ok := sh.m[k]
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
		metricsFor(f).observeCache(true)
		return y, true
	}
	return 0, false
}

// Insert memoizes an already computed oracle result. The caller vouches that
// y is the correctly rounded value (Lookup/Insert exist so callers that batch
// many (format, mode) queries against one Value can still populate the
// cache).
//
// A key another goroutine inserted since this caller's Lookup missed counts
// as a hit: each distinct key is one miss and every other query a hit,
// however the goroutines interleave.
func (c *Cache) Insert(f Func, x float64, t fp.Format, m fp.Mode, y float64) {
	k := cacheKey{fn: f, bits: math.Float64bits(x), t: t, mode: m}
	sh := &c.shards[c.stripe(k)]
	sh.mu.Lock()
	_, raced := sh.m[k]
	sh.m[k] = y
	sh.mu.Unlock()
	if raced {
		c.hits.Add(1)
		metricsFor(f).observeCache(true)
		return
	}
	c.misses.Add(1)
	metricsFor(f).observeCache(false)
}

func (c *Cache) stripe(k cacheKey) uint64 {
	h := k.bits ^ uint64(k.fn)<<56 ^ uint64(k.t.Bits)<<40 ^ uint64(k.t.ExpBits)<<32 ^ uint64(k.mode)<<48
	h *= 0x9e3779b97f4a7c15 // Fibonacci hashing spreads neighbouring bit patterns
	return (h >> 32) & c.mask
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of memoized entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// CacheReport is the "cache" section of the rlibm-gen and rlibm-check run
// reports: the run's oracle queries split into those an in-memory Cache
// answered (hits) and those the oracle computed (misses), and how many of
// the oracle's non-exact roundings the double-double rung settled without
// big.Float (process-wide, see RungTotals).
type CacheReport struct {
	OracleHits   int64   `json:"oracle_hits"`
	OracleMisses int64   `json:"oracle_misses"`
	HitRate      float64 `json:"hit_rate"`
	RungHits     int64   `json:"fast_rung_hits"`
	RungDeclines int64   `json:"fast_rung_declines"`
	RungHitRate  float64 `json:"fast_rung_hit_rate"`
}

// NewCacheReport derives the report section from a run's query counts and
// the oracle's rung totals.
func NewCacheReport(hits, misses int64) *CacheReport {
	r := &CacheReport{OracleHits: hits, OracleMisses: misses}
	if hits+misses > 0 {
		r.HitRate = float64(hits) / float64(hits+misses)
	}
	r.RungHits, r.RungDeclines = RungTotals()
	if n := r.RungHits + r.RungDeclines; n > 0 {
		r.RungHitRate = float64(r.RungHits) / float64(n)
	}
	return r
}
