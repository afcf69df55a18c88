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

	lpPivots       *obs.Counter // exact tableau pivots, all phases
	lpFloatPivots  *obs.Counter // float simplex pivots before the certificate
	lpFallbacks    *obs.Counter // solves the exact tableau ran for (no certificate)
	lpPivotsPhase1 *obs.Counter
	lpPivotsPhase2 *obs.Counter
	lpPivotsDual   *obs.Counter   // dual-simplex pivots of warm resolves
	lpPivotsCanon  *obs.Counter   // lex-canonicalization pivots
	lpWarm         *obs.Counter   // resolves served from the previous basis, float or exact
	lpCold         *obs.Counter   // from-scratch two-phase solves
	lpPivotsSaved  *obs.Counter   // estimated exact pivots avoided by warm dual re-solves
	lpPerSolve     *obs.Histogram // pivots per LP solve
	lpTime         *obs.Histogram // wall-clock per LP solve (ns)
	lpTimeWarm     *obs.Histogram // wall-clock per warm resolve (ns)
	lpTimeCold     *obs.Histogram // wall-clock per cold solve (ns)
	lpRowsMax      *obs.Gauge     // largest tableau seen
	lpColsMax      *obs.Gauge
	checkTime      *obs.Histogram // wall-clock per full-constraint check (ns)
	solveTime      *obs.Gauge     // this scheme's whole solve loop (ns)

	reg    *obs.Registry
	prefix string

	// lastColdPivots remembers the most recent exact cold solve's two-phase
	// pivot count; an exact warm resolve's savings are estimated against it
	// (the cold solve it replaced would have been at least as large — the
	// system has only grown since). Written and read from the scheme's
	// single solve goroutine only.
	lastColdPivots int64

	// Registry values at the start of this run. Stats is a per-run view, but
	// a caller-supplied registry (Config.Metrics) outlives runs and its
	// counters are monotonic, so fillStats reports deltas from these.
	baseIter, baseLP, baseConstrain, basePivots, baseWarm, baseCold int64
	baseFloatPivots, baseFallbacks                                  int64
}

func newSchemeMetrics(reg *obs.Registry, fn oracle.Func, scheme poly.Scheme) *schemeMetrics {
	p := "core/" + fn.String() + "/" + scheme.String() + "/"
	return &schemeMetrics{
		iterations:      reg.Counter(p + "iterations"),
		lpSolves:        reg.Counter(p + "lp_solves"),
		constrainEvents: reg.Counter(p + "constrain_events"),
		demotedSources:  reg.Counter(p + "demoted_sources"),
		lpPivots:        reg.Counter(p + "lp_pivots"),
		lpFloatPivots:   reg.Counter(p + "lp_float_pivots"),
		lpFallbacks:     reg.Counter(p + "lp_exact_fallbacks"),
		lpPivotsPhase1:  reg.Counter(p + "lp_pivots_phase1"),
		lpPivotsPhase2:  reg.Counter(p + "lp_pivots_phase2"),
		lpPivotsDual:    reg.Counter(p + "lp_pivots_dual"),
		lpPivotsCanon:   reg.Counter(p + "lp_pivots_canon"),
		lpWarm:          reg.Counter(p + "lp_warm_resolves"),
		lpCold:          reg.Counter(p + "lp_cold_solves"),
		lpPivotsSaved:   reg.Counter(p + "lp_pivots_saved"),
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
	m.lpPivots.Add(int64(st.Pivots()))
	m.lpFloatPivots.Add(int64(st.FloatPivots))
	if st.Exact {
		m.lpFallbacks.Inc()
	}
	m.lpPivotsPhase1.Add(int64(st.Phase1Pivots))
	m.lpPivotsPhase2.Add(int64(st.Phase2Pivots))
	m.lpPivotsDual.Add(int64(st.DualPivots))
	m.lpPivotsCanon.Add(int64(st.CanonPivots))
	m.lpPerSolve.Observe(int64(st.Pivots()))
	m.lpTime.ObserveDuration(dur)
	m.lpRowsMax.SetMax(int64(st.Rows))
	m.lpColsMax.SetMax(int64(st.Cols))
	if st.Warm {
		m.lpWarm.Inc()
		m.lpTimeWarm.ObserveDuration(dur)
		// The avoided cold solve would have pivoted at least as much as the
		// previous exact cold solve of this (only grown since) system; count
		// the difference to the dual-simplex work actually done as saved. A
		// certified solve does no exact work, so it saves nothing here.
		if saved := m.lastColdPivots - int64(st.DualPivots); st.Exact && saved > 0 {
			m.lpPivotsSaved.Add(saved)
		}
	} else {
		m.lpCold.Inc()
		m.lpTimeCold.ObserveDuration(dur)
		if st.Exact {
			m.lastColdPivots = int64(st.Phase1Pivots + st.Phase2Pivots)
		}
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
}
