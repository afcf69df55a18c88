package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rlibm/internal/fp"
	"rlibm/internal/interval"
	"rlibm/internal/lp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"
)

// workItem is one merged constraint: the polynomial output at the reduced
// input R must land in Iv. Sources lists the original inputs (as float64
// bit patterns) that reduce to R — needed to demote inputs to special cases
// when their constraint becomes unsatisfiable.
type workItem struct {
	R       float64
	Iv      interval.Interval
	Sources []uint64
}

// Piece is one polynomial of a (possibly piecewise) approximation.
type Piece struct {
	// Lo, Hi bound the reduced-input sub-domain of this piece (inclusive).
	Lo, Hi float64
	// Coeffs are the double-rounded coefficients of the LP solution.
	Coeffs poly.Poly
	// Eval evaluates Coeffs under the configured scheme (for Knuth, with
	// the adapted alpha coefficients).
	Eval *poly.Evaluator
	// PrefixEvals evaluates the progressive prefixes of Coeffs, parallel to
	// Result.Prefixes (nil for non-progressive runs). Entry k binds the
	// leading Prefixes[k].Degree+1 coefficients to the same scheme.
	PrefixEvals []*poly.Evaluator
}

// PrefixLevel is one progressive level of a generated Result: a narrow
// output format served by a verified prefix of the polynomial.
type PrefixLevel struct {
	// Format is the narrow output format the level serves.
	Format fp.Format
	// Target is the level's round-to-odd verification target
	// (Format.Bits + 2 with the input's exponent width).
	Target fp.Format
	// Degree is the verified prefix polynomial degree (the maximum across
	// pieces when they differ).
	Degree int
	// Specials maps input bit patterns to the level's round-to-odd result
	// for inputs the prefix polynomial cannot serve. Inputs in the full
	// Result.Specials table are NOT repeated here — the full table's
	// round-to-odd values compose down to every level.
	Specials map[uint64]float64
}

// Stats records how the generation run went. The loop counters (LPSolves,
// Iterations, ConstrainEvents, LPPivots) are a view over the run's metrics
// registry (Config.Metrics): the pipeline increments registry handles and
// copies the per-run deltas here when the scheme finishes.
type Stats struct {
	Inputs          int // enumerated polynomial-path inputs (deduplicated)
	Constraints     int // merged reduced constraints
	LPSolves        int
	Iterations      int
	ConstrainEvents int   // intervals shrunk by the check step
	LPPivots        int64 // exact big.Rat tableau pivots across every LP solve
	// LPFloatPivots counts the float64 simplex pivots that searched for a
	// basis to certify; LPExactFallbacks counts the LP solves the exact
	// tableau ran for, because the float search ended without a certificate.
	LPFloatPivots    int64
	LPExactFallbacks int
	// WarmResolves counts LP solves that resumed from the previous basis
	// (the float basis, or the exact tableau's dual re-solve); ColdSolves
	// counts solves from scratch (always at least one per piece, plus
	// warm-path fallbacks).
	WarmResolves int
	ColdSolves   int

	// CollectTime is the wall-clock of the shared oracle/interval collection
	// pass; SolveTime is the wall-clock of this scheme's generate–check–
	// constrain loop. With Workers > 1 both passes run sharded, so these are
	// elapsed times, not CPU times.
	CollectTime time.Duration
	SolveTime   time.Duration
	// OracleMisses counts the oracle values the whole GenerateAll run
	// computed: the shared collection pass plus every scheme's demotions and
	// progressive levels. It is the same for any worker count. OracleHits
	// stays 0, as no memo answers oracle queries; both keep the names of the
	// run reports' cache section.
	OracleHits, OracleMisses int64
}

// Result is a generated correctly rounded implementation.
type Result struct {
	Fn     oracle.Func
	Scheme poly.Scheme
	Input  fp.Format
	Target fp.Format

	Dom      Domain
	Pieces   []Piece
	Specials map[uint64]float64 // input bits (float64) -> round-to-odd result
	// Prefixes lists the progressive levels (Config.Progressive order);
	// empty for non-progressive runs.
	Prefixes []PrefixLevel
	Stats    Stats

	red rangered.Reduction
	// oracleValues counts the oracle values this scheme's solve computed
	// (demotions and progressive levels), for Stats.OracleMisses.
	oracleValues int64
}

// correct asks the oracle for fn(x) rounded to t under round-to-odd and
// counts the value in r.oracleValues.
func (r *Result) correct(x float64, t fp.Format) float64 {
	r.oracleValues++
	return oracle.Correct(r.Fn, x, t, fp.RTO)
}

// Generate runs the full pipeline of Figure 1 and returns a correctly
// rounded implementation, or an error when no polynomial of the permitted
// degrees satisfies the constraints. Canceling ctx stops the run at the
// next pivot or iteration boundary; the error then wraps ctx.Err() (the LP
// layer reports it as *lp.CanceledError).
func Generate(ctx context.Context, cfg Config) (*Result, error) {
	rs, err := GenerateAll(ctx, cfg, []poly.Scheme{cfg.Scheme})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// GenerateAll runs the pipeline for several evaluation schemes of one
// function, sharing the (expensive) oracle/interval collection: the
// constraint set depends only on the function and the formats, while the
// generate–check–constrain loop is scheme-specific. With Workers > 1 the
// schemes solve concurrently (collection is shared and each scheme's loop is
// independent); results are bit-identical to a serial run because every
// scheme derives its randomness from its own (Seed, Fn, Scheme) source.
func GenerateAll(ctx context.Context, cfg Config, schemes []poly.Scheme) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	red := rangered.For(cfg.Fn)
	dom := FindDomain(cfg.Fn, cfg.Target)

	collectStart := time.Now()
	preSpecials := map[uint64]float64{}
	csp := cfg.Trace.StartSpan("collect", obs.Attrs{"fn": cfg.Fn.String(), "workers": cfg.Workers})
	work, stats, err := collect(&cfg, red, dom, preSpecials)
	if err != nil {
		csp.End(obs.Attrs{"error": err.Error()})
		return nil, err
	}
	stats.CollectTime = time.Since(collectStart)
	csp.End(obs.Attrs{
		"inputs": stats.Inputs, "constraints": len(work), "pre_specials": len(preSpecials),
	})
	cfg.Metrics.Gauge("core/" + cfg.Fn.String() + "/collect_time_ns").Set(int64(stats.CollectTime))
	cfg.logf("%v: %d constraints, %d pre-specials (collected in %v, %d workers)",
		cfg.Fn, len(work), len(preSpecials), stats.CollectTime.Round(time.Millisecond), cfg.Workers)

	out := make([]*Result, len(schemes))
	errs := make([]error, len(schemes))
	solve := func(i int, scheme poly.Scheme) {
		out[i], errs[i] = generateScheme(ctx, cfg, scheme, work, preSpecials, dom, red, stats)
	}
	if cfg.Workers > 1 && len(schemes) > 1 {
		var wg sync.WaitGroup
		for i, scheme := range schemes {
			wg.Add(1)
			go func(i int, scheme poly.Scheme) {
				defer wg.Done()
				solve(i, scheme)
			}(i, scheme)
		}
		wg.Wait()
	} else {
		for i, scheme := range schemes {
			solve(i, scheme)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	computed := stats.OracleMisses
	for _, res := range out {
		computed += res.oracleValues
	}
	for _, res := range out {
		res.Stats.OracleMisses = computed
	}
	return out, nil
}

// generateScheme runs the scheme-specific half of the pipeline — piecewise
// splitting and the generate–check–constrain loop — over the shared
// constraint set. work is read-only here: adaptLoop copies the intervals it
// shrinks, so concurrent schemes never race on it.
func generateScheme(ctx context.Context, cfg Config, scheme poly.Scheme, work []*workItem,
	preSpecials map[uint64]float64, dom Domain, red rangered.Reduction, stats Stats) (*Result, error) {

	start := time.Now()
	m := newSchemeMetrics(cfg.Metrics, cfg.Fn, scheme).snapshotBase()
	ssp := cfg.Trace.StartSpan("scheme.solve", obs.Attrs{
		"fn": cfg.Fn.String(), "scheme": scheme.String(),
	})
	res := &Result{
		Fn:       cfg.Fn,
		Scheme:   scheme,
		Input:    cfg.Input,
		Target:   cfg.Target,
		Dom:      dom,
		Specials: make(map[uint64]float64, len(preSpecials)),
		Stats:    stats,
		red:      red,
	}
	for b, y := range preSpecials {
		res.Specials[b] = y
	}
	for _, l := range cfg.Progressive {
		res.Prefixes = append(res.Prefixes, PrefixLevel{
			Format:   fp.Format{Bits: l.Bits, ExpBits: cfg.Input.ExpBits},
			Target:   fp.Format{Bits: l.Bits + 2, ExpBits: cfg.Input.ExpBits},
			Specials: map[uint64]float64{},
		})
	}
	scfg := cfg
	scfg.Scheme = scheme
	chunks := split(work, scfg.Pieces)
	if cfg.Fn.IsTrig() {
		chunks = splitByValue(work, scfg.Pieces)
	}
	rng := rand.New(rand.NewSource(scfg.Seed + int64(scfg.Fn)<<8 + int64(scheme)))
	for _, chunk := range chunks {
		piece, err := solvePiece(ctx, &scfg, chunk, rng, res, m)
		if err != nil {
			ssp.End(obs.Attrs{"error": err.Error()})
			return nil, fmt.Errorf("%v/%v: %w", scfg.Fn, scheme, err)
		}
		res.Pieces = append(res.Pieces, *piece)
	}
	sort.Slice(res.Pieces, func(i, j int) bool { return res.Pieces[i].Lo < res.Pieces[j].Lo })
	res.Stats.SolveTime = time.Since(start)
	m.solveTime.Set(int64(res.Stats.SolveTime))
	m.fillStats(&res.Stats)
	ssp.End(obs.Attrs{
		"pieces": len(res.Pieces), "specials": len(res.Specials),
		"iterations": res.Stats.Iterations, "lp_solves": res.Stats.LPSolves,
		"lp_pivots": res.Stats.LPPivots,
	})
	return res, nil
}

// candidate is one enumerated input's contribution to the constraint set,
// recorded before the cross-worker reduction: the input (xb), its oracle
// result (y), and its reduced input (r/rb) and interval. Keeping per-input
// candidates — rather than merging inside each worker — is what makes the
// parallel reduction bit-for-bit deterministic: the merge order per reduced
// input is the sorted source order, independent of how the enumeration was
// sharded.
type candidate struct {
	rb uint64 // bits of r, the grouping key (distinguishes ±0)
	xb uint64 // original input bits
	r  float64
	y  float64 // round-to-odd oracle result for xb
	iv interval.Interval
}

// collectShard is one worker's private output buffer.
type collectShard struct {
	cands    []candidate
	specials map[uint64]float64
	oracle   int64 // oracle values computed
}

// collect enumerates the inputs, asks the oracle for round-to-odd results,
// computes rounding intervals, reduces them, and merges by reduced input.
// The enumeration is sharded across cfg.Workers goroutines (the oracle pass
// is the pipeline's dominant cost and is embarrassingly parallel over bit
// patterns); the barrier reduction sorts by (reduced input, source input) so
// the merged constraints are identical for any worker count.
func collect(cfg *Config, red rangered.Reduction, dom Domain, specials map[uint64]float64) ([]*workItem, Stats, error) {
	var stats Stats

	// The small mandatory passes are materialized up front and dealt to the
	// workers round-robin. Exact-result inputs carry singleton intervals that
	// pin the polynomial (e.g. p(0) = 1 for the exponential family);
	// domain-cut neighbourhoods have the tightest intervals of the whole
	// domain and stride sampling would otherwise leave them to interpolation.
	extras := exactInputs(cfg.Fn, cfg.Input, dom)
	for _, cut := range []float64{dom.Lo, dom.Hi, dom.TinyLo, dom.TinyHi} {
		if cut == 0 || math.IsInf(cut, 0) || math.IsNaN(cut) {
			continue
		}
		up := cfg.Input.Round(cut, fp.RTP)
		dn := cfg.Input.Round(cut, fp.RTN)
		for i := 0; i < 128; i++ {
			extras = append(extras, up, dn)
			up = cfg.Input.NextUp(up)
			dn = cfg.Input.NextDown(dn)
		}
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	n := cfg.Input.Count()
	// Aligned pass: every input whose trailing 13 significand bits are zero
	// — for binary32 that is a superset of all tensorfloat32 and bfloat16
	// values — so stride-sampled generation still yields exhaustive
	// correctness for the ML formats the paper's introduction motivates.
	const aligned = 1 << 13
	alignedPass := cfg.Stride > 1 && cfg.Input.SigBits() > 13

	shards := make([]collectShard, workers)
	runShard := func(w int) {
		sh := &shards[w]
		sh.specials = map[uint64]float64{}
		// Stride enumeration over the input format's bit patterns,
		// interleaved across workers.
		for b := uint64(w) * cfg.Stride; b < n; b += cfg.Stride * uint64(workers) {
			classify(cfg, red, dom, cfg.Input.FromBits(b), sh)
		}
		if alignedPass {
			for b := uint64(w) * aligned; b < n; b += aligned * uint64(workers) {
				classify(cfg, red, dom, cfg.Input.FromBits(b), sh)
			}
		}
		for i := w; i < len(extras); i += workers {
			classify(cfg, red, dom, extras[i], sh)
		}
		// Sort inside the worker: the streaming merge below consumes the
		// shards as sorted runs, so the O(n log n) comparison work happens
		// in parallel and the barrier only pays the O(n) merge.
		sort.Slice(sh.cands, func(i, j int) bool { return candLess(&sh.cands[i], &sh.cands[j]) })
	}
	if workers == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runShard(w)
			}(w)
		}
		wg.Wait()
	}

	// Worker shard utilization: with interleaved enumeration the shards
	// should be near-equal; a skewed histogram means the sharding is wasting
	// workers on filtered regions.
	shardHist := cfg.Metrics.Histogram("core/" + cfg.Fn.String() + "/collect_shard_candidates")
	shardCounts := make([]int, len(shards))
	for i := range shards {
		shardCounts[i] = len(shards[i].cands)
		shardHist.Observe(int64(shardCounts[i]))
	}
	cfg.Trace.Event("collect.shards", obs.Attrs{
		"fn": cfg.Fn.String(), "workers": workers, "candidates": shardCounts,
	})

	// Streaming deterministic reduction at the barrier: the shards are
	// already sorted by (reduced input, source input), so a k-way merge
	// visits every candidate in exactly the order the old concatenate-and-
	// sort pass produced — but one candidate at a time, folded straight into
	// the constraint accumulator for its reduced input, without ever
	// materializing the concatenated candidate slice. Duplicate enumerations
	// of one input (aligned pass, domain-cut neighbourhoods overlapping the
	// stride sweep) collapse here, and the merged work list feeds the
	// per-piece splitting unchanged, so the reduction stays bit-identical
	// for any worker count.
	for i := range shards {
		for b, y := range shards[i].specials {
			specials[b] = y
		}
		stats.OracleMisses += shards[i].oracle
	}
	var work []*workItem
	var item *workItem       // accumulator for the current reduced input
	var curRB, prevXB uint64 // current group key; previous source seen in it
	merge := newShardMerge(shards)
	for {
		c := merge.next()
		if c == nil {
			break
		}
		if item == nil || c.rb != curRB {
			work = append(work, &workItem{R: c.r, Iv: c.iv, Sources: []uint64{c.xb}})
			item = work[len(work)-1]
			curRB, prevXB = c.rb, c.xb
			stats.Inputs++
			continue
		}
		if c.xb == prevXB {
			continue // duplicate enumeration of the same input
		}
		prevXB = c.xb
		stats.Inputs++
		// Intersect with the existing constraint.
		lo := math.Max(item.Iv.Lo, c.iv.Lo)
		hi := math.Min(item.Iv.Hi, c.iv.Hi)
		if lo > hi {
			// Irreconcilable at this reduced input: the newcomer becomes
			// a special case (the paper's CombineRedIntervals would fail
			// the whole run; demoting the conflicting input preserves
			// progress).
			specials[c.xb] = c.y
			continue
		}
		item.Iv = interval.Interval{Lo: lo, Hi: hi}
		item.Sources = append(item.Sources, c.xb)
	}
	stats.Constraints = len(work)
	return work, stats, nil
}

// candLess is the canonical candidate order: by reduced input value, then
// its bit pattern (+0 before -0: ordered, deterministically), then source
// input. Shards sort by it and the merge preserves it globally.
func candLess(a, b *candidate) bool {
	if a.r != b.r {
		return a.r < b.r
	}
	if a.rb != b.rb {
		return a.rb < b.rb
	}
	return a.xb < b.xb
}

// shardMerge streams the union of the sorted per-worker candidate runs in
// canonical order. Worker counts are small (tens), so a linear scan over
// the run heads beats a heap: no allocations, trivially deterministic
// tie-breaking (lowest shard index wins between equal candidates, which
// cannot reorder equal keys because candLess is a total order on them).
type shardMerge struct {
	shards []collectShard
	heads  []int
}

func newShardMerge(shards []collectShard) *shardMerge {
	return &shardMerge{shards: shards, heads: make([]int, len(shards))}
}

// next returns the smallest unconsumed candidate, or nil when every run is
// exhausted. The pointer aliases the shard's backing array and is only
// valid until the shard is released.
func (m *shardMerge) next() *candidate {
	best := -1
	var bc *candidate
	for i := range m.shards {
		h := m.heads[i]
		if h >= len(m.shards[i].cands) {
			continue
		}
		c := &m.shards[i].cands[h]
		if best < 0 || candLess(c, bc) {
			best, bc = i, c
		}
	}
	if best < 0 {
		return nil
	}
	m.heads[best]++
	if m.heads[best] == len(m.shards[best].cands) {
		// Run exhausted: release the shard's candidate memory early — with
		// many workers the streamed reduction never holds more than the
		// still-unconsumed runs plus the accumulator.
		m.shards[best].cands = nil
		m.heads[best] = 0
	}
	return bc
}

// classify computes one enumerated input's contribution — a special-case
// entry, a reduced-constraint candidate, or nothing (filtered) — into the
// worker's private shard. It only reads cfg/red/dom and asks the oracle,
// so any number of workers may run it at once.
func classify(cfg *Config, red rangered.Reduction, dom Domain, x float64, sh *collectShard) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
		return
	}
	if cfg.Fn.IsLog() && x < 0 {
		return
	}
	if !dom.PolyPath(x) {
		return
	}
	xb := math.Float64bits(x)
	y := oracle.Correct(cfg.Fn, x, cfg.Target, fp.RTO)
	sh.oracle++
	r, key := red.Reduce(x)
	if pv, structural := red.ExactPoint(r); structural {
		// Structurally exact reduced inputs are served by the table /
		// sign logic alone; only an inconsistency would make one a
		// real special case.
		oc := red.Compensate(pv, key)
		good := oc == y // covers exact results, including zeros
		if !good {
			if iv, err := interval.Rounding(y, cfg.Target, fp.RTO); err == nil {
				good = iv.Contains(oc)
			}
		}
		if !good {
			sh.specials[xb] = y
		}
		return
	}
	iv, err := interval.Rounding(y, cfg.Target, fp.RTO)
	if err != nil {
		sh.specials[xb] = y
		return
	}
	riv, ok := rangered.ReducedInterval(red, key, iv)
	if !ok {
		sh.specials[xb] = y
		return
	}
	sh.cands = append(sh.cands, candidate{
		rb: math.Float64bits(r), xb: xb, r: r, y: y, iv: riv,
	})
}

// exactInputs enumerates the format's inputs whose results are exactly
// representable rationals: every such input carries a singleton rounding
// interval that must never be missed by stride sampling.
func exactInputs(fn oracle.Func, input fp.Format, dom Domain) []float64 {
	var out []float64
	add := func(v float64) {
		if input.IsRepresentable(v) && dom.PolyPath(v) {
			if _, exact := oracle.ExactValue(fn, v); exact {
				out = append(out, v)
			}
		}
	}
	switch fn {
	case oracle.Exp2, oracle.Exp10:
		lo := int(math.Ceil(dom.Lo))
		hi := int(math.Floor(dom.Hi))
		for n := lo; n <= hi; n++ {
			add(float64(n))
		}
	case oracle.Log2:
		for k := input.MinExp() - input.Prec() + 1; k <= input.MaxExp(); k++ {
			add(math.Ldexp(1, k))
		}
	case oracle.Log10:
		p := 1.0
		for n := 0; n <= 40; n++ {
			add(p)
			p *= 10
			if p > input.MaxFinite() {
				break
			}
		}
	case oracle.Exp, oracle.Log:
		// exp(0) and log(1) are handled by the zero/tiny plateaus and the
		// special table respectively; nothing to pin.
	case oracle.Sinpi, oracle.Cospi:
		// All exact trig inputs (multiples of 1/2) reduce to the
		// structural points m = 0 and m = 1/2; nothing to pin.
	}
	return out
}

// split partitions the sorted constraints into pieces of (roughly) equal
// constraint count — RLibm's sub-domain splitting for piecewise polynomials.
func split(work []*workItem, pieces int) [][]*workItem {
	if pieces <= 1 || len(work) <= pieces {
		return [][]*workItem{work}
	}
	var out [][]*workItem
	per := (len(work) + pieces - 1) / pieces
	for start := 0; start < len(work); start += per {
		end := start + per
		if end > len(work) {
			end = len(work)
		}
		out = append(out, work[start:end])
	}
	return out
}

// splitByValue partitions the sorted constraints into sub-domains of equal
// reduced-input width. The trigonometric quadrant needs this: reduced
// inputs are log-distributed toward zero, so count-based splitting would
// hand one piece most of [0, 1/2], where a low-degree polynomial cannot
// reach interval accuracy. Non-finite reduced inputs (for which an equal-
// width partition is meaningless) and any chunking that fails to cover the
// constraints exactly fall back to count-based split.
func splitByValue(work []*workItem, pieces int) [][]*workItem {
	if pieces <= 1 || len(work) <= pieces {
		return [][]*workItem{work}
	}
	lo, hi := work[0].R, work[len(work)-1].R
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return split(work, pieces)
	}
	width := (hi - lo) / float64(pieces)
	if width <= 0 || math.IsInf(width, 0) {
		return [][]*workItem{work}
	}
	var out [][]*workItem
	start := 0
	for p := 1; p <= pieces && start < len(work); p++ {
		bound := lo + float64(p)*width
		end := start
		for end < len(work) && (p == pieces || work[end].R < bound) {
			end++
		}
		if end > start {
			out = append(out, work[start:end])
		}
		start = end
	}
	// Post-condition: the chunks are consecutive slices of work (so they
	// cannot overlap) and together cover every constraint. A rounding
	// surprise in the bound arithmetic must not silently drop constraints —
	// dropped constraints would surface as wrong results much later.
	covered := 0
	for _, c := range out {
		covered += len(c)
	}
	if covered != len(work) {
		return split(work, pieces)
	}
	return out
}

// solvePiece runs Algorithm 2 on one sub-domain, escalating the degree when
// the iteration budget runs out. It owns this piece's incremental LP solver:
// the optimal tableau survives across adaptLoop's constrain iterations, so
// each re-solve after an interval shrink warm-starts from the previous basis
// instead of running the two-phase method from nothing (SetDegree resets it
// when the degree escalates — the variable space changes shape).
func solvePiece(ctx context.Context, cfg *Config, work []*workItem, rng *rand.Rand, res *Result, m *schemeMetrics) (*Piece, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, it := range work {
		lo = math.Min(lo, it.R)
		hi = math.Max(hi, it.R)
	}
	solver := lp.NewSolver(lp.Options{Degree: cfg.Degree, WarmStart: !cfg.ColdLP})
	for degree := cfg.Degree; degree <= cfg.DegreeMax; degree++ {
		solver.SetDegree(degree)
		ev, err := adaptLoop(ctx, cfg, solver, work, degree, rng, res, m, nil)
		if err == nil {
			piece := &Piece{Lo: lo, Hi: hi, Coeffs: ev.Coeffs, Eval: ev}
			if len(cfg.Progressive) == 0 {
				return piece, nil
			}
			// Progressive rounds: re-solve the combined full+prefix system
			// level by level on the same warm solver. A failure escalates the
			// full degree — a deeper polynomial frees the trailing
			// coefficients to absorb what the prefixes cannot.
			if perr := solveProgressive(ctx, cfg, solver, work, degree, rng, res, m, piece); perr != nil {
				if ctx.Err() != nil {
					return nil, perr
				}
				err = perr
			} else {
				return piece, nil
			}
		}
		if ctx.Err() != nil {
			return nil, err // canceled: escalating the degree would just re-fail
		}
		cfg.Trace.Event("degree.failed", obs.Attrs{
			"fn": cfg.Fn.String(), "scheme": cfg.Scheme.String(),
			"degree": degree, "error": err.Error(),
		})
		cfg.logf("  degree %d failed: %v", degree, err)
	}
	return nil, fmt.Errorf("no polynomial up to degree %d satisfies the %d constraints", cfg.DegreeMax, len(work))
}

// demoteItem moves the sources of a work item into the special-case table
// and unconstrains its interval. The budget is charged per source — not once
// per item — and demotion stops with an error the moment it is exhausted, so
// a many-source item can never overshoot Config.MaxSpecials. Sources already
// in the table (demoted via a sibling constraint) are free.
func demoteItem(cfg *Config, res *Result, it *workItem, budget int) (int, error) {
	for _, xb := range it.Sources {
		if _, ok := res.Specials[xb]; ok {
			continue
		}
		if budget <= 0 {
			return budget, fmt.Errorf("special-case budget exhausted (%d)", cfg.MaxSpecials)
		}
		x := math.Float64frombits(xb)
		res.Specials[xb] = res.correct(x, cfg.Target)
		budget--
	}
	it.Iv = interval.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} // unconstrained
	return budget, nil
}

// pickSample selects the initial LP sample over a work list: the narrowest
// (often singleton) constraints pin the polynomial, the bulk spreads evenly
// over the reduced domain (live is sorted by R — coverage beats randomness
// for pinning a low-degree polynomial), and any remainder fills randomly.
func pickSample(live []*workItem, sampleSize int, rng *rand.Rand) map[int]bool {
	if sampleSize > len(live) {
		sampleSize = len(live)
	}
	sample := map[int]bool{}
	type widthIdx struct {
		w float64
		i int
	}
	widths := make([]widthIdx, len(live))
	for i, it := range live {
		widths[i] = widthIdx{w: it.Iv.Hi - it.Iv.Lo, i: i}
	}
	sort.Slice(widths, func(a, b int) bool { return widths[a].w < widths[b].w })
	for i := 0; i < sampleSize/4 && i < len(widths); i++ {
		sample[widths[i].i] = true
	}
	if n := sampleSize - len(sample); n > 0 {
		step := len(live) / n
		if step == 0 {
			step = 1
		}
		for i := step / 2; i < len(live) && len(sample) < sampleSize; i += step {
			sample[i] = true
		}
	}
	for len(sample) < sampleSize {
		sample[rng.Intn(len(live))] = true
	}
	return sample
}

// sortedIdx flattens a sample set in ascending index order. The sample is a
// map for O(1) dedup, but LP constraint order decides the Bland's-rule pivot
// sequence — and with it the exact solution vertex. Go randomizes map
// iteration order, so feeding the simplex straight from the map would change
// the generated coefficients from run to run, silently defeating
// Config.Seed.
func sortedIdx(sample map[int]bool) []int {
	idx := make([]int, 0, len(sample))
	for i := range sample {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// adaptLoop is Algorithm 2: LP-solve on a sample, adapt for the scheme,
// validate everything with the real float64 evaluation, constrain violated
// intervals, repeat. Each iteration hands the solver its complete current
// constraint set: the solver prunes what it already knows, appends what is
// new or tighter, and reoptimizes from the previous basis (resetting itself
// when a constraint disappears via demotion — see lp.Solver.Solve).
//
// With levels != nil (a progressive round) the LP additionally carries each
// level's prefix constraints, the check step validates every level with its
// truncated evaluator, and level demotions land in per-attempt scratch
// tables the caller commits on success.
func adaptLoop(ctx context.Context, cfg *Config, solver *lp.Solver, work []*workItem, degree int, rng *rand.Rand, res *Result, m *schemeMetrics, levels []*levelState) (*poly.Evaluator, error) {
	// Work on copies of the intervals: interval shrinking is per (degree,
	// scheme) attempt.
	items := make([]workItem, len(work))
	for i, it := range work {
		items[i] = *it
		// A progressive round re-derives the full system from the original
		// work list, but inputs the base round already demoted are served by
		// the table regardless of the polynomial — re-imposing their
		// intervals could only manufacture infeasibility.
		if levels != nil && allSourcesSpecial(it.Sources, res.Specials) {
			items[i].Iv = interval.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		}
	}
	live := make([]*workItem, len(items))
	for i := range items {
		live[i] = &items[i]
	}

	sample := pickSample(live, cfg.SampleSize, rng)
	for _, st := range levels {
		st.sample = pickSample(st.live, cfg.SampleSize, rng)
	}

	specialsBudget := cfg.MaxSpecials - len(res.Specials)
	vals := make([]float64, len(live))

	for iter := 0; iter < cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("generation canceled: %w", err)
		}
		m.iterations.Inc()
		isp := cfg.Trace.StartSpan("iteration", obs.Attrs{
			"fn": cfg.Fn.String(), "scheme": cfg.Scheme.String(),
			"degree": degree, "iter": iter, "live": len(live),
		})
		// Exact rational LP on the samples (see sortedIdx for why the map
		// cannot feed the simplex directly). Level prefix constraints ride in
		// the same system: one vector, every format.
		sampleIdx := sortedIdx(sample)
		cons := make([]lp.Constraint, 0, len(sampleIdx))
		for _, i := range sampleIdx {
			it := live[i]
			if math.IsInf(it.Iv.Lo, -1) {
				continue // demoted
			}
			cons = append(cons, lp.Constraint{
				X:  new(big.Rat).SetFloat64(it.R),
				Lo: new(big.Rat).SetFloat64(it.Iv.Lo),
				Hi: new(big.Rat).SetFloat64(it.Iv.Hi),
			})
		}
		levelIdx := make([][]int, len(levels))
		for li, st := range levels {
			levelIdx[li] = sortedIdx(st.sample)
			for _, i := range levelIdx[li] {
				it := st.live[i]
				if math.IsInf(it.Iv.Lo, -1) {
					continue
				}
				cons = append(cons, lp.Constraint{
					X:      new(big.Rat).SetFloat64(it.R),
					Lo:     new(big.Rat).SetFloat64(it.Iv.Lo),
					Hi:     new(big.Rat).SetFloat64(it.Iv.Hi),
					Prefix: st.prefix,
				})
			}
		}
		m.lpSolves.Inc()
		lpStart := time.Now()
		lpRes, lpErr := solver.Solve(ctx, cons)
		coeffs, lpStats := lpRes.Coeffs, lpRes.Stats
		lpDur := time.Since(lpStart)
		m.observeLP(lpStats, lpDur, lpErr)
		if isCanceled(lpErr) {
			isp.End(obs.Attrs{"lp": "canceled", "error": lpErr.Error()})
			return nil, fmt.Errorf("generation canceled: %w", lpErr)
		}
		if isPivotLimit(lpErr) {
			// Cycling guard tripped — nothing useful can come from demoting
			// constraints, so abort this degree attempt with the cause.
			isp.End(obs.Attrs{"lp": "pivot-limit", "error": lpErr.Error()})
			return nil, fmt.Errorf("LP solve aborted: %w", lpErr)
		}
		if lpErr != nil {
			// The sampled system is rationally infeasible (or unbounded, which
			// the sampled box constraints only produce degenerately): demote
			// the narrowest sampled constraint — across the full sample and
			// every level's — and retry. Scanning in sorted index order, full
			// sample first, makes the tie-break (first narrowest wins)
			// deterministic.
			var narrow *workItem
			var narrowSt *levelState
			for _, i := range sampleIdx {
				it := live[i]
				if math.IsInf(it.Iv.Lo, -1) {
					continue
				}
				if narrow == nil || it.Iv.Hi-it.Iv.Lo < narrow.Iv.Hi-narrow.Iv.Lo {
					narrow = it
				}
			}
			for li, st := range levels {
				for _, i := range levelIdx[li] {
					it := st.live[i]
					if math.IsInf(it.Iv.Lo, -1) {
						continue
					}
					if narrow == nil || it.Iv.Hi-it.Iv.Lo < narrow.Iv.Hi-narrow.Iv.Lo {
						narrow, narrowSt = it, st
					}
				}
			}
			if narrow == nil {
				isp.End(obs.Attrs{"lp": lp.InfeasibilityCause(lpErr), "error": "empty sample"})
				return nil, fmt.Errorf("LP infeasible with empty sample")
			}
			var err error
			demoted := 0
			if narrowSt != nil {
				before := narrowSt.budget
				err = narrowSt.demote(cfg, res, narrow)
				demoted = before - narrowSt.budget
			} else {
				before := specialsBudget
				specialsBudget, err = demoteItem(cfg, res, narrow, specialsBudget)
				demoted = before - specialsBudget
			}
			m.demotedSources.Add(int64(demoted))
			attrs := obs.Attrs{
				"fn": cfg.Fn.String(), "scheme": cfg.Scheme.String(),
				"degree": degree, "iter": iter, "reason": lp.InfeasibilityCause(lpErr),
				"sources": demoted,
			}
			if narrowSt != nil {
				attrs["level"] = narrowSt.format.Bits
			}
			cfg.Trace.Event("demote", attrs)
			if err != nil {
				isp.End(obs.Attrs{"lp": lp.InfeasibilityCause(lpErr), "error": err.Error()})
				return nil, err
			}
			isp.End(obs.Attrs{
				"sample": len(cons), "lp": lp.InfeasibilityCause(lpErr),
				"lp_us": lpDur.Microseconds(), "pivots": lpStats.Pivots(),
				"float_pivots": lpStats.FloatPivots, "forced_rows": lpStats.ForcedRows,
				"certified": lpStats.Certified,
			})
			continue
		}

		// Round to double and bind the evaluation scheme (Knuth adaptation
		// happens here — including its cubic solve and rounding error).
		fcoeffs := poly.RatPoly(coeffs).Float64s()
		ev, err := poly.NewEvaluator(cfg.Scheme, fcoeffs)
		if err != nil {
			isp.End(obs.Attrs{"error": err.Error()})
			return nil, err
		}
		for _, st := range levels {
			// The level is served by the truncated polynomial under the SAME
			// scheme (for Knuth, with its own adapted coefficients) — the
			// instruction sequence validated here is the one that ships.
			st.pev, err = poly.NewEvaluator(cfg.Scheme, fcoeffs[:st.prefix])
			if err != nil {
				isp.End(obs.Attrs{"error": err.Error()})
				return nil, err
			}
		}

		// Check every constraint — full and per level — with the real
		// instruction sequence.
		checkStart := time.Now()
		take := 2 * (degree + 1)
		violations, cerr := checkPass(cfg, ev, live, vals, sample, take, m, func(it *workItem) error {
			before := specialsBudget
			var derr error
			specialsBudget, derr = demoteItem(cfg, res, it, specialsBudget)
			m.demotedSources.Add(int64(before - specialsBudget))
			cfg.Trace.Event("demote", obs.Attrs{
				"fn": cfg.Fn.String(), "scheme": cfg.Scheme.String(),
				"degree": degree, "iter": iter, "reason": "empty-interval",
				"sources": before - specialsBudget,
			})
			return derr
		})
		for _, st := range levels {
			if cerr != nil {
				break
			}
			st := st
			lv, lerr := checkPass(cfg, st.pev, st.live, st.vals, st.sample, take, m, func(it *workItem) error {
				before := st.budget
				derr := st.demote(cfg, res, it)
				m.demotedSources.Add(int64(before - st.budget))
				cfg.Trace.Event("demote", obs.Attrs{
					"fn": cfg.Fn.String(), "scheme": cfg.Scheme.String(),
					"degree": degree, "iter": iter, "reason": "empty-interval",
					"level": st.format.Bits, "sources": before - st.budget,
				})
				return derr
			})
			violations += lv
			cerr = lerr
		}
		checkDur := time.Since(checkStart)
		m.checkTime.ObserveDuration(checkDur)
		if cerr != nil {
			isp.End(obs.Attrs{"error": cerr.Error()})
			return nil, cerr
		}
		isp.End(obs.Attrs{
			"sample": len(cons), "violations": violations,
			"lp_us": lpDur.Microseconds(), "check_us": checkDur.Microseconds(),
			"pivots": lpStats.Pivots(), "float_pivots": lpStats.FloatPivots,
			"forced_rows": lpStats.ForcedRows, "certified": lpStats.Certified,
		})
		if violations == 0 {
			return ev, nil
		}
		cfg.logf("  iter %d: %d violations (sample %d)", iter, violations, len(sample))
	}
	return nil, fmt.Errorf("exceeded %d iterations at degree %d", cfg.MaxIters, degree)
}

// checkPass validates one work list against one evaluator: the evaluations
// are pure, so they shard across workers; the interval updates are applied
// serially afterwards, in constraint order, so demotion and shrink
// decisions are identical for any worker count. Violated intervals shrink
// via interval.Constrain; emptied ones are handed to demote. A bounded set
// of violators joins the LP sample: the single worst offenders plus an even
// spread across the violated region (unbounded growth would make the exact
// simplex intractable; the PLDI'22 driver bounds its working set the same
// way).
func checkPass(cfg *Config, ev *poly.Evaluator, live []*workItem, vals []float64,
	sample map[int]bool, take int, m *schemeMetrics, demote func(*workItem) error) (int, error) {

	parallelFor(cfg.Workers, len(live), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if math.IsInf(live[i].Iv.Lo, -1) {
				continue
			}
			vals[i] = ev.Eval(live[i].R)
		}
	})
	violations := 0
	type viol struct {
		i   int
		amt float64 // how far outside the interval, relative
	}
	var worst []viol
	for i, it := range live {
		if math.IsInf(it.Iv.Lo, -1) {
			continue
		}
		v := vals[i]
		if it.Iv.Contains(v) {
			continue
		}
		violations++
		m.constrainEvents.Inc()
		amt := it.Iv.Lo - v
		if v > it.Iv.Hi {
			amt = v - it.Iv.Hi
		}
		amt /= math.Max(it.Iv.Hi-it.Iv.Lo, math.SmallestNonzeroFloat64)
		it.Iv = interval.Constrain(it.Iv, v)
		if it.Iv.Empty() {
			if err := demote(it); err != nil {
				return violations, err
			}
			continue
		}
		worst = append(worst, viol{i: i, amt: amt})
	}
	sort.Slice(worst, func(a, b int) bool { return worst[a].amt > worst[b].amt })
	for i := 0; i < len(worst) && i < take; i++ {
		sample[worst[i].i] = true
	}
	if len(worst) > take {
		rest := worst[take:]
		sort.Slice(rest, func(a, b int) bool { return rest[a].i < rest[b].i })
		step := len(rest) / take
		if step == 0 {
			step = 1
		}
		for i := step / 2; i < len(rest); i += step {
			sample[rest[i].i] = true
		}
	}
	return violations, nil
}

// parallelFor splits [0, n) into one contiguous chunk per worker and runs
// body on each concurrently, waiting for all of them. Small inputs run
// inline: below a few thousand iterations the goroutine fan-out costs more
// than it saves.
func parallelFor(workers, n int, body func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2048 {
		body(0, n)
		return
	}
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
