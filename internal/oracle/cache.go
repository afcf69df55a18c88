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
	// store, when non-nil, is the persistent layer: entries it loaded from
	// disk were preloaded into the stripes by AttachStore, and every fresh
	// computation is appended back (the store ignores appends in read-only
	// mode).
	store *Store
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

// AttachStore preloads every entry the store read from disk into the
// in-memory stripes and routes future misses back to it, making the store
// the persistent layer under this cache. Call before handing the cache to
// concurrent workers.
func (c *Cache) AttachStore(s *Store) {
	if s == nil {
		return
	}
	c.store = s
	s.forEach(func(k cacheKey, y float64) {
		sh := &c.shards[c.stripe(k)]
		sh.mu.Lock()
		sh.m[k] = y
		sh.mu.Unlock()
	})
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

// Insert memoizes an already computed oracle result, persisting it when a
// store is attached. The caller vouches that y is the correctly rounded
// value (Lookup/Insert exist so callers that batch many (format, mode)
// queries against one Value can still populate the cache).
//
// A key another goroutine inserted since this caller's Lookup missed counts
// as a hit and is not persisted again: each distinct key is one miss and
// every other query a hit, however the goroutines interleave.
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
	if c.store != nil {
		c.store.Append(k, y)
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
