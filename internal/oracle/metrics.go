package oracle

import (
	"sync"

	"rlibm/internal/obs"
)

// fnMetrics caches one function's instrument handles into obs.Default().
// The oracle sits below any per-run configuration (Value is shared by every
// layer above), so its metrics are process-wide; CLIs merge
// the default registry into their run reports.
//
// Handles are resolved once per process — Round is the hottest path in the
// repository (one call per enumerated input per (format, mode)), and a name lookup per call would contend on the registry
// mutex, so all updates go through pre-resolved atomic instruments.
type fnMetrics struct {
	// zivDepth is the Ziv escalation depth histogram: how many times one
	// Round call had to double the working precision (0 = the initial
	// precision rounded unambiguously).
	zivDepth *obs.Histogram
	// zivPrec is the terminal working precision histogram (bits) of Ziv-path
	// Round calls; zivPrecMax tracks the process-wide maximum.
	zivPrec    *obs.Histogram
	zivPrecMax *obs.Gauge
	// exact counts Round calls answered from the algebraic exact-result or
	// symbolic overflow/underflow paths (no Ziv loop at all).
	exact *obs.Counter
	// ladderStart is the precision-ladder starting rung histogram: the
	// working precision fresh evaluations begin at (basePrec when the
	// ladder is cold). Together with zivDepth — the ladder-depth histogram —
	// it shows how often the fast path skips escalations. Like zivDepth and
	// zivPrec it covers the big.Float path only.
	ladderStart *obs.Histogram
	// rungHits / rungDeclines count non-exact Round calls the double-double
	// rung answered vs passed to the Ziv loop (input outside the rung's
	// domain, or an enclosure straddling a rounding boundary).
	rungHits, rungDeclines *obs.Counter
}

var (
	fnMetricsOnce sync.Once
	fnMetricsTab  []fnMetrics
)

// metricsFor returns the handles for f, or nil for out-of-range values.
func metricsFor(f Func) *fnMetrics {
	fnMetricsOnce.Do(func() {
		fnMetricsTab = make([]fnMetrics, len(AllFuncs))
		reg := obs.Default()
		for _, fn := range AllFuncs {
			name := fn.String()
			fnMetricsTab[fn] = fnMetrics{
				zivDepth:     reg.Histogram("oracle/" + name + "/ziv_depth"),
				zivPrec:      reg.Histogram("oracle/" + name + "/terminal_prec"),
				zivPrecMax:   reg.Gauge("oracle/" + name + "/terminal_prec_max"),
				exact:        reg.Counter("oracle/" + name + "/exact_results"),
				ladderStart:  reg.Histogram("oracle/" + name + "/ladder_start_prec"),
				rungHits:     reg.Counter("oracle/" + name + "/fast_rung_hits"),
				rungDeclines: reg.Counter("oracle/" + name + "/fast_rung_declines"),
			}
		}
	})
	if int(f) < 0 || int(f) >= len(fnMetricsTab) {
		return nil
	}
	return &fnMetricsTab[f]
}

// observeZiv records one Ziv-path Round call.
func (m *fnMetrics) observeZiv(depth int, prec uint) {
	if m == nil {
		return
	}
	m.zivDepth.Observe(int64(depth))
	m.zivPrec.Observe(int64(prec))
	m.zivPrecMax.SetMax(int64(prec))
}

// observeExact records one exact/symbolic-path Round call.
func (m *fnMetrics) observeExact() {
	if m == nil {
		return
	}
	m.exact.Inc()
}

// observeRung records whether the rung answered one Round call.
func (m *fnMetrics) observeRung(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.rungHits.Inc()
	} else {
		m.rungDeclines.Inc()
	}
}

// RungTotals returns the process-wide double-double rung hit and decline
// counts summed over every function (the fast_rung_hits and
// fast_rung_declines counters).
func RungTotals() (hits, declines int64) {
	for _, f := range AllFuncs {
		m := metricsFor(f)
		hits += m.rungHits.Value()
		declines += m.rungDeclines.Value()
	}
	return hits, declines
}

// observeLadderStart records the starting precision of one fresh
// evaluation.
func (m *fnMetrics) observeLadderStart(prec uint) {
	if m == nil {
		return
	}
	m.ladderStart.Observe(int64(prec))
}
