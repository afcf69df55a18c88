package oracle

import (
	"testing"

	"rlibm/internal/fp"
)

// TestZivMetricsRecorded: Ziv-path rounds populate the per-function depth
// and terminal-precision histograms in obs.Default(); rounds the
// float64 rung answers count as rung hits and leave the Ziv
// histograms alone; exact-path rounds count separately. Metrics are
// process-global and monotonic, so the test asserts deltas.
func TestZivMetricsRecorded(t *testing.T) {
	m := metricsFor(Exp)
	if m == nil {
		t.Fatal("no metrics for Exp")
	}
	depth0, prec0, exact0 := m.zivDepth.Count(), m.zivPrec.Count(), m.exact.Value()
	hits0, declines0 := m.rungHits.Value(), m.rungDeclines.Value()

	rung := Correct(Exp, 0.5, fp.FP34, fp.RTO)
	if rung == 0 {
		t.Fatal("oracle returned 0 for exp(0.5)")
	}
	if m.rungHits.Value() != hits0+1 || m.zivDepth.Count() != depth0 {
		t.Errorf("rung answer not counted as a hit: hits %d->%d, Ziv depth count %d->%d",
			hits0, m.rungHits.Value(), depth0, m.zivDepth.Count())
	}
	if got := compute(Exp, 0.5, false).Round(fp.FP34, fp.RTO); got != rung {
		t.Fatalf("big.Float path exp(0.5) = %g, rung %g", got, rung)
	}
	if m.zivDepth.Count() != depth0+1 || m.zivPrec.Count() != prec0+1 {
		t.Errorf("Ziv histograms not advanced: depth %d->%d, prec %d->%d",
			depth0, m.zivDepth.Count(), prec0, m.zivPrec.Count())
	}
	if m.rungDeclines.Value() != declines0+1 {
		t.Errorf("big.Float-path round not counted as a rung decline: %d -> %d", declines0, m.rungDeclines.Value())
	}
	if m.zivPrecMax.Value() < 80 {
		t.Errorf("terminal precision max = %d, want >= the 80-bit start", m.zivPrecMax.Value())
	}

	Correct(Exp, 0, fp.FP34, fp.RTO) // exact path: exp(0) = 1
	if m.exact.Value() != exact0+1 {
		t.Errorf("exact counter not advanced: %d -> %d", exact0, m.exact.Value())
	}

	if bad := metricsFor(Func(99)); bad != nil {
		t.Error("out-of-range Func must yield nil metrics")
	}
	bad := metricsFor(Func(99))
	bad.observeZiv(1, 80) // nil-safe no-ops
	bad.observeExact()
	bad.observeRung(true)
}
