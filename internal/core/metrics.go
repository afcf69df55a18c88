package core

import (
	"errors"
	"time"

	"rlibm/internal/lp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// schemeMetrics holds one scheme run's instrument handles. The pipeline
// increments these — not Stats fields — during the generate–check–constrain
// loop; Stats is populated from the handles when the run finishes, making it
// a thin view over the registry. Handles are pre-resolved because the name
// lookup takes the registry mutex and the loop is hot.
//
// Names are prefixed "core/<fn>/<scheme>/" so the concurrent scheme loops of
// GenerateAll never share an instrument.
type schemeMetrics struct {
	iterations      *obs.Counter
	lpSolves        *obs.Counter
	constrainEvents *obs.Counter
	demotedSources  *obs.Counter

	lpPivots      *obs.Counter // exact continuation pivots
	lpFloatPivots *obs.Counter // float simplex pivots before the certificate
	lpFallbacks   *obs.Counter // solves that went exact (no certified float basis)
	// lpReasons counts the solves that went exact, by lp.ExactReason
	// (index 0, lp.ExactNone, stays nil).
	lpReasons  [lp.ExactInfeasible + 1]*obs.Counter
	lpWarm     *obs.Counter   // solves whose float search started from the previous basis
	lpCold     *obs.Counter   // solves whose float search started from scratch
	lpPerSolve *obs.Histogram // exact pivots per LP solve
	lpTime     *obs.Histogram // wall-clock per LP solve (ns)
	lpTimeWarm *obs.Histogram // wall-clock per warm resolve (ns)
	lpTimeCold *obs.Histogram // wall-clock per cold solve (ns)
	lpRowsMax  *obs.Gauge     // largest LP seen
	lpColsMax  *obs.Gauge
	checkTime  *obs.Histogram // wall-clock per full-constraint check (ns)
	solveTime  *obs.Gauge     // this scheme's whole solve loop (ns)

	reg    *obs.Registry
	prefix string

	// Registry values at the start of this run. Stats is a per-run view, but
	// a caller-supplied registry (Config.Metrics) outlives runs and its
	// counters are monotonic, so fillStats reports deltas from these.
	baseIter, baseLP, baseConstrain, basePivots, baseWarm, baseCold int64
	baseFloatPivots, baseFallbacks                                  int64
	baseReasons                                                     [lp.ExactInfeasible + 1]int64
}

func newSchemeMetrics(reg *obs.Registry, fn oracle.Func, scheme poly.Scheme) *schemeMetrics {
	p := "core/" + fn.String() + "/" + scheme.String() + "/"
	m := &schemeMetrics{
		iterations:      reg.Counter(p + "iterations"),
		lpSolves:        reg.Counter(p + "lp_solves"),
		constrainEvents: reg.Counter(p + "constrain_events"),
		demotedSources:  reg.Counter(p + "demoted_sources"),
		lpPivots:        reg.Counter(p + "lp_pivots"),
		lpFloatPivots:   reg.Counter(p + "lp_float_pivots"),
		lpFallbacks:     reg.Counter(p + "lp_exact_fallbacks"),
		lpWarm:          reg.Counter(p + "lp_warm_resolves"),
		lpCold:          reg.Counter(p + "lp_cold_solves"),
		lpPerSolve:      reg.Histogram(p + "lp_pivots_per_solve"),
		lpTime:          reg.Histogram(p + "lp_solve_time_ns"),
		lpTimeWarm:      reg.Histogram(p + "lp_warm_resolve_time_ns"),
		lpTimeCold:      reg.Histogram(p + "lp_cold_solve_time_ns"),
		lpRowsMax:       reg.Gauge(p + "lp_rows_max"),
		lpColsMax:       reg.Gauge(p + "lp_cols_max"),
		checkTime:       reg.Histogram(p + "check_time_ns"),
		solveTime:       reg.Gauge(p + "solve_time_ns"),
		reg:             reg,
		prefix:          p,
	}
	for r := range m.lpReasons {
		if r := lp.ExactReason(r); r != lp.ExactNone {
			m.lpReasons[r] = reg.Counter(p + "lp_exact_reason/" + r.String())
		}
	}
	return m
}

// snapshotBase records the current counter values; fillStats later reports
// deltas from here so repeated runs into one shared registry never leak
// across Stats views.
func (m *schemeMetrics) snapshotBase() *schemeMetrics {
	m.baseIter = m.iterations.Value()
	m.baseLP = m.lpSolves.Value()
	m.baseConstrain = m.constrainEvents.Value()
	m.basePivots = m.lpPivots.Value()
	m.baseWarm = m.lpWarm.Value()
	m.baseCold = m.lpCold.Value()
	m.baseFloatPivots = m.lpFloatPivots.Value()
	m.baseFallbacks = m.lpFallbacks.Value()
	for r, c := range m.lpReasons {
		if c != nil {
			m.baseReasons[r] = c.Value()
		}
	}
	return m
}

// isPivotLimit reports whether an LP error is the degenerate-cycling guard
// (the one solve failure that aborts a degree attempt instead of demoting).
func isPivotLimit(err error) bool {
	var pl *lp.PivotLimitError
	return errors.As(err, &pl)
}

// isCanceled reports whether an LP error is a context cancellation, which
// aborts the whole scheme rather than demoting or escalating.
func isCanceled(err error) bool {
	var ce *lp.CanceledError
	return errors.As(err, &ce)
}

// observeLP records one LP solve outcome: stats always, split by warm vs
// cold resolve, the infeasibility cause by name when the solve failed.
func (m *schemeMetrics) observeLP(st lp.Stats, dur time.Duration, err error) {
	m.lpPivots.Add(int64(st.Pivots))
	m.lpFloatPivots.Add(int64(st.FloatPivots))
	if st.ExactReason != lp.ExactNone {
		m.lpFallbacks.Inc()
		m.lpReasons[st.ExactReason].Inc()
	}
	m.lpPerSolve.Observe(int64(st.Pivots))
	m.lpTime.ObserveDuration(dur)
	m.lpRowsMax.SetMax(int64(st.Rows))
	m.lpColsMax.SetMax(int64(st.Cols))
	if st.Warm {
		m.lpWarm.Inc()
		m.lpTimeWarm.ObserveDuration(dur)
	} else {
		m.lpCold.Inc()
		m.lpTimeCold.ObserveDuration(dur)
	}
	if cause := lp.InfeasibilityCause(err); cause != "" {
		m.reg.Counter(m.prefix + "lp_" + cause).Inc()
	}
}

// fillStats populates the Stats view from the registry handles (deltas from
// the snapshotBase values).
func (m *schemeMetrics) fillStats(s *Stats) {
	s.Iterations = int(m.iterations.Value() - m.baseIter)
	s.LPSolves = int(m.lpSolves.Value() - m.baseLP)
	s.ConstrainEvents = int(m.constrainEvents.Value() - m.baseConstrain)
	s.LPPivots = m.lpPivots.Value() - m.basePivots
	s.WarmResolves = int(m.lpWarm.Value() - m.baseWarm)
	s.ColdSolves = int(m.lpCold.Value() - m.baseCold)
	s.LPFloatPivots = m.lpFloatPivots.Value() - m.baseFloatPivots
	s.LPExactFallbacks = int(m.lpFallbacks.Value() - m.baseFallbacks)
	s.LPExactReasons = nil
	for r, c := range m.lpReasons {
		if c == nil {
			continue
		}
		if n := int(c.Value() - m.baseReasons[r]); n > 0 {
			if s.LPExactReasons == nil {
				s.LPExactReasons = map[string]int{}
			}
			s.LPExactReasons[lp.ExactReason(r).String()] = n
		}
	}
}
