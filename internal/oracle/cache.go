package oracle

// Cache is empty. It stood for an in-memory memo in front of Correct;
// generation and verification ask for almost every oracle value once, so
// the memo answered almost no query and cost more than it saved. It
// remains only as the type of the deprecated campaign.Engine.Cache, and
// goes with that field. Only NewCache is marked Deprecated, because that
// field names the type from another package.
type Cache struct{}

// NewCache returns an empty Cache; shards is ignored.
//
// Deprecated: nothing reads a Cache.
func NewCache(shards int) *Cache { return &Cache{} }

// CacheReport is the "cache" section of the rlibm-gen and rlibm-check run
// reports: the oracle values the run computed (misses; hits stay 0, as no
// memo answers queries), and how many of the oracle's non-exact roundings
// the float64 rung settled without big.Float (process-wide, see
// RungTotals).
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
