// Package obs is the repository's structured observability layer: a
// dependency-free metrics registry (counters, gauges, log-scale histograms),
// a span-style JSONL event tracer, a leveled logger, and pprof helpers.
//
// The design constraint that shapes everything here is determinism: the
// generation pipeline promises bit-identical coefficients for a fixed seed,
// for any worker count, with or without observability enabled. Metrics are
// therefore strictly write-only from the pipeline's point of view — nothing
// in this package feeds a value back into generation — and every instrument
// is safe for concurrent use (atomics for the hot-path updates, a mutex only
// around instrument creation and trace writes).
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of instruments. Instruments are created on
// first use and live for the registry's lifetime; handles returned by
// Counter/Gauge/Histogram may be cached and used from any goroutine.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry collects process-wide metrics from layers that have no
// natural per-run configuration hook (the oracle's Ziv loop, the oracle
// cache). CLIs snapshot it into their run reports.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named monotonic counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic; this is not
// enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 (tableau dimensions, terminal precisions, ...).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrement) — the shape
// level-style gauges (queue depths, open connections) need.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax stores n if it exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every histogram: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1, the last
// bucket is unbounded above). Values are int64 — nanoseconds for durations,
// plain counts for pivot totals and escalation depths — so 63 log-2 buckets
// cover the whole range.
const histBuckets = 64

// Histogram counts int64 observations in fixed log-2-scale buckets. The
// zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2(v)) for v >= 2
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value. Negative values clamp into the lowest bucket.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one occupied histogram bucket: Count observations in (Lo, Hi]
// (Lo = 0 for the first bucket; Hi is the inclusive upper bound 2^i).
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON-friendly state of a histogram; only occupied
// buckets appear.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time, JSON-serializable copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// snapshotHist copies a histogram's occupied buckets.
func snapshotHist(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: int64(1) << i, Count: n})
	}
	return s
}

// Snapshot copies every instrument's current state. Instruments registered
// but never updated still appear (with zero values), so a report reflects
// what was instrumented, not only what fired.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHist(h)
	}
	return s
}

// Merge folds other into s (other wins on name collisions). Reports use it
// to consolidate the per-run registry with the process-wide default one.
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	for name, v := range other.Counters {
		s.Counters[name] = v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] = v
	}
	for name, v := range other.Histograms {
		s.Histograms[name] = v
	}
}

// Counter returns the named counter's value, or 0 when the snapshot does
// not carry it — report consumers (CI scripts, tests) read hit/miss style
// counters without caring whether the producing run instrumented them.
func (s Snapshot) Counter(name string) int64 {
	return s.Counters[name]
}

// Gauge is Counter's analogue for gauges.
func (s Snapshot) Gauge(name string) int64 {
	return s.Gauges[name]
}

// Names returns the sorted instrument names of the snapshot (all kinds),
// mainly for tests and debugging.
func (s Snapshot) Names() []string {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
