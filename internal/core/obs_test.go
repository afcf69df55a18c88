package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"rlibm/internal/fp"
	"rlibm/internal/lp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// TestObservabilityDoesNotPerturbGeneration is the write-only guarantee of
// the observability layer: turning on every instrument at once — metrics
// registry, JSONL tracer, debug logger, parallel workers — must leave the
// generated coefficients, specials, and constraint counts bit-for-bit
// identical to a bare run.
func TestObservabilityDoesNotPerturbGeneration(t *testing.T) {
	in := fp.Format{Bits: 12, ExpBits: 8}
	bare, err := Generate(context.Background(), Config{Fn: oracle.Exp2, Scheme: poly.EstrinFMA, Input: in, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var traceBuf bytes.Buffer
	traced, err := Generate(context.Background(), Config{
		Fn: oracle.Exp2, Scheme: poly.EstrinFMA, Input: in, Seed: 11, Workers: 4,
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(&traceBuf),
		Logger:  obs.NewLogger(io.Discard, obs.LevelDebug),
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "traced", bare, traced)

	// The trace must be non-empty, valid JSONL, and carry the phase spans.
	events := map[string]int{}
	sc := bufio.NewScanner(&traceBuf)
	for sc.Scan() {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		events[ev.Ev]++
	}
	for _, want := range []string{"collect", "collect.shards", "scheme.solve", "iteration"} {
		if events[want] == 0 {
			t.Errorf("trace has no %q events (got %v)", want, events)
		}
	}
}

// TestStatsViewFromRegistry: the Stats loop counters are deltas of the
// run's registry instruments, and per-run isolation holds even when two
// runs share one registry.
func TestStatsViewFromRegistry(t *testing.T) {
	in := fp.Format{Bits: 12, ExpBits: 8}
	reg := obs.NewRegistry()
	cfg := Config{Fn: oracle.Exp2, Scheme: poly.Horner, Input: in, Seed: 11, Workers: 1, Metrics: reg}
	first, err := Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.LPSolves == 0 || first.Stats.Iterations == 0 {
		t.Fatalf("stats view empty: %+v", first.Stats)
	}
	if first.Stats.LPPivots == 0 {
		t.Fatal("no LP pivots recorded")
	}
	snap := reg.Snapshot()
	p := "core/exp2/horner/"
	if got := snap.Counters[p+"lp_solves"]; got != int64(first.Stats.LPSolves) {
		t.Errorf("registry lp_solves = %d, Stats view = %d", got, first.Stats.LPSolves)
	}
	if got := snap.Counters[p+"lp_pivots"]; got != first.Stats.LPPivots {
		t.Errorf("registry lp_pivots = %d, Stats view = %d", got, first.Stats.LPPivots)
	}
	if snap.Histograms[p+"lp_solve_time_ns"].Count != int64(first.Stats.LPSolves) {
		t.Errorf("lp_solve_time_ns count %d, want %d",
			snap.Histograms[p+"lp_solve_time_ns"].Count, first.Stats.LPSolves)
	}

	// Second run into the SAME registry: registry counters accumulate, the
	// Stats view stays per-run.
	second, err := Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.LPSolves != first.Stats.LPSolves {
		t.Errorf("per-run Stats leaked across runs: %d vs %d", second.Stats.LPSolves, first.Stats.LPSolves)
	}
	if got := reg.Snapshot().Counters[p+"lp_solves"]; got != 2*int64(first.Stats.LPSolves) {
		t.Errorf("shared registry lp_solves = %d, want %d", got, 2*first.Stats.LPSolves)
	}
}

// TestRunReport: the -report payload carries per-scheme phase times, LP
// pivot totals and the oracle's rung counters and Ziv escalation
// histograms for every generated function, and survives a JSON round-trip.
func TestRunReport(t *testing.T) {
	in := fp.Format{Bits: 12, ExpBits: 8}
	reg := obs.NewRegistry()
	rep := NewRunReport("core-test")
	rep.Config["bits"] = "12"
	for _, fn := range []oracle.Func{oracle.Exp2, oracle.Log2} {
		res, err := Generate(context.Background(), Config{Fn: fn, Scheme: poly.Horner, Input: in, Seed: 11, Workers: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		rep.AddResult(res)
	}
	rep.AttachMetrics(reg, obs.Default())
	if !rep.Solved() {
		t.Fatal("all schemes solved but Solved() = false")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Tool != "core-test" || back.CreatedAt == "" || back.Config["bits"] != "12" {
		t.Errorf("header mangled: %+v", back)
	}
	if len(back.Results) != 2 {
		t.Fatalf("%d results, want 2", len(back.Results))
	}
	for _, sr := range back.Results {
		if !sr.Solved || sr.Error != "" {
			t.Errorf("%s/%s not marked solved", sr.Fn, sr.Scheme)
		}
		if sr.CollectMs <= 0 || sr.SolveMs <= 0 {
			t.Errorf("%s: phase times missing: collect=%v solve=%v", sr.Fn, sr.CollectMs, sr.SolveMs)
		}
		if sr.LPPivots == 0 || sr.LPSolves == 0 {
			t.Errorf("%s: LP totals missing: pivots=%d solves=%d", sr.Fn, sr.LPPivots, sr.LPSolves)
		}
		if len(sr.Degrees) != sr.Pieces {
			t.Errorf("%s: %d degrees for %d pieces", sr.Fn, len(sr.Degrees), sr.Pieces)
		}
	}
	for _, fn := range []string{"exp2", "log2"} {
		// The double-double rung answers almost every query; the Ziv
		// escalation histogram counts the big.Float path only, so the
		// oracle's work shows up as rung hits plus Ziv-path rounds.
		h, ok := back.Metrics.Histograms["oracle/"+fn+"/ziv_depth"]
		hits := back.Metrics.Counters["oracle/"+fn+"/fast_rung_hits"]
		if !ok || h.Count+hits == 0 {
			t.Errorf("report lacks oracle/%s/ziv_depth escalation histogram or rung hits (ok=%v count=%d hits=%d)", fn, ok, h.Count, hits)
		}
		if back.Metrics.Counters["core/"+fn+"/horner/lp_solves"] == 0 {
			t.Errorf("report lacks core/%s/horner/lp_solves", fn)
		}
	}

	// A failure flips Solved() — this is what CI keys off.
	rep.AddFailure("exp", "horner", io.ErrUnexpectedEOF)
	if rep.Solved() {
		t.Error("Solved() must be false after AddFailure")
	}
	if (&RunReport{}).Solved() {
		t.Error("empty report must not count as solved")
	}
	if !strings.Contains(rep.Results[len(rep.Results)-1].Error, "EOF") {
		t.Error("failure cause not recorded")
	}
}

// TestRunReportCacheRung: the cache section carries the oracle's
// double-double rung totals and their hit rate.
func TestRunReportCacheRung(t *testing.T) {
	oracle.Correct(oracle.Exp, 0.5, fp.FP34, fp.RTO) // a query the rung answers
	rep := NewRunReport("core-test")
	rep.Cache = oracle.NewCacheReport(3, 1)
	c := rep.Cache
	if c.HitRate != 0.75 {
		t.Errorf("hit rate %v, want 0.75", c.HitRate)
	}
	if c.RungHits == 0 || c.RungHitRate <= 0 || c.RungHitRate > 1 {
		t.Errorf("rung totals missing: hits %d declines %d rate %v", c.RungHits, c.RungDeclines, c.RungHitRate)
	}
	if want := float64(c.RungHits) / float64(c.RungHits+c.RungDeclines); c.RungHitRate != want {
		t.Errorf("rung hit rate %v, want %v", c.RungHitRate, want)
	}
}

// TestRunReportCacheSection: a report of a small generation carries the
// cache section with no hits and, as misses, the oracle values the run
// computed: every oracle Round of the generation except FindDomain's
// boundary search, per the oracle's process-wide counters. The progressive
// level makes the scheme's solve ask the oracle too, not only collect.
func TestRunReportCacheSection(t *testing.T) {
	cfg := Config{Fn: oracle.Exp2, Scheme: poly.Horner, Input: fp.Format{Bits: 14, ExpBits: 8}, Seed: 1, Workers: 1,
		Progressive: []ProgressiveLevel{{Bits: 10}}}
	rounds := func() int64 {
		reg, name := obs.Default(), "oracle/"+cfg.Fn.String()+"/"
		return reg.Counter(name+"exact_results").Value() + reg.Counter(name+"fast_rung_hits").Value() +
			reg.Counter(name+"fast_rung_declines").Value()
	}
	r0 := rounds()
	FindDomain(cfg.Fn, fp.Format{Bits: 16, ExpBits: 8})
	r1 := rounds()
	res, err := Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	computed := rounds() - r1 - (r1 - r0)
	if res.Stats.OracleHits != 0 || res.Stats.OracleMisses <= 0 || res.Stats.OracleMisses != computed {
		t.Errorf("stats: %d hits, %d misses; want 0 and the %d oracle values computed",
			res.Stats.OracleHits, res.Stats.OracleMisses, computed)
	}
	rep := NewRunReport("core-test")
	rep.AddResult(res)
	rep.Cache = oracle.NewCacheReport(res.Stats.OracleHits, res.Stats.OracleMisses)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Cache == nil {
		t.Fatal("report has no cache section")
	}
	if back.Cache.OracleHits != 0 || back.Cache.OracleMisses != computed {
		t.Errorf("oracle_hits %d, oracle_misses %d; want 0 and %d", back.Cache.OracleHits, back.Cache.OracleMisses, computed)
	}
	if back.Cache.RungHits == 0 {
		t.Error("fast_rung_hits is 0 after a generation")
	}
}

// TestRungAnswersGenerationSet: the oracle's double-double rung answers at
// least 99.9% of the rounding queries of the benchmark's generation set
// (exp2@14, log2@16, log@15, log10@15 at stride 1), per its counters. The
// counters are process-wide, so the test runs the set alone and takes
// deltas.
func TestRungAnswersGenerationSet(t *testing.T) {
	items := []struct {
		fn   oracle.Func
		bits int
	}{{oracle.Exp2, 14}, {oracle.Log2, 16}, {oracle.Log, 15}, {oracle.Log10, 15}}
	hits0, declines0 := oracle.RungTotals()
	for _, it := range items {
		cfg := Config{Fn: it.fn, Scheme: poly.Horner, Input: fp.Format{Bits: it.bits, ExpBits: 8}, Stride: 1, Seed: 1, Workers: 1}
		if _, err := Generate(context.Background(), cfg); err != nil {
			t.Fatalf("%v@%d: %v", it.fn, it.bits, err)
		}
	}
	hits1, declines1 := oracle.RungTotals()
	hits, declines := hits1-hits0, declines1-declines0
	t.Logf("rung answered %d of %d rounding queries", hits, hits+declines)
	if hits == 0 || float64(declines) > 0.001*float64(hits+declines) {
		t.Errorf("rung answered %d of %d rounding queries, want at least 99.9%%", hits, hits+declines)
	}
}

// TestObserveLPSplitsFloatAndExact: lp_exact_fallbacks counts only solves
// the exact tableau ran for (not a cancellation during the float search),
// and lp_pivots_saved compares only exact dual re-solves with the last
// exact cold solve.
func TestObserveLPSplitsFloatAndExact(t *testing.T) {
	reg := obs.NewRegistry()
	m := newSchemeMetrics(reg, oracle.Exp2, poly.Horner).snapshotBase()
	ms := time.Millisecond
	m.observeLP(lp.Stats{Phase1Pivots: 7, Phase2Pivots: 3, Exact: true}, ms, nil)
	m.observeLP(lp.Stats{FloatPivots: 5, Warm: true, Certified: true, Canonical: true}, ms, nil)
	m.observeLP(lp.Stats{FloatPivots: 6, Certified: true, Canonical: true}, ms, nil)
	m.observeLP(lp.Stats{FloatPivots: 2}, ms, &lp.CanceledError{Phase: "float", Err: context.Canceled})
	m.observeLP(lp.Stats{DualPivots: 4, Warm: true, Exact: true}, ms, nil)
	var s Stats
	m.fillStats(&s)
	if s.LPExactFallbacks != 2 || s.LPFloatPivots != 13 || s.LPPivots != 14 {
		t.Errorf("fallbacks %d, float pivots %d, exact pivots %d; want 2, 13, 14",
			s.LPExactFallbacks, s.LPFloatPivots, s.LPPivots)
	}
	if s.WarmResolves != 2 || s.ColdSolves != 3 {
		t.Errorf("warm %d cold %d; want 2 and 3", s.WarmResolves, s.ColdSolves)
	}
	if saved := m.lpPivotsSaved.Value(); saved != 6 {
		t.Errorf("lp_pivots_saved = %d, want 6 (10 cold pivots - 4 dual)", saved)
	}
}
