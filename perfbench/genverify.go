package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rlibm/internal/campaign"
	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/interval"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// genItem is one (function, input width) the generation set regenerates
// exhaustively at stride 1.
type genItem struct {
	fn   oracle.Func
	bits int
}

// genSet mixes an LP-heavy function (exp2 iterates its
// generate-check-constrain loop) with oracle-heavy logarithms: at widths up
// to 16 every logarithm input reduces exactly through the 128-entry table,
// so their runs are the oracle and interval collection alone. The LP
// sampling seed is fixed, so the work, and every count core reports, is the
// same for every workload seed.
var genSet = []genItem{{oracle.Exp2, 14}, {oracle.Log2, 16}, {oracle.Log, 15}, {oracle.Log10, 15}}

const genLPSeed = 1

func (it genItem) String() string { return fmt.Sprintf("%v@%d", it.fn, it.bits) }

var genSchemes = []poly.Scheme{poly.Horner, poly.Knuth, poly.Estrin, poly.EstrinFMA}

// campaignWidths are the output widths every campaign input is checked at,
// under all five rounding modes; 27 and 32 are the widths with the known
// log residuals near x = 1.
var campaignWidths = []int{19, 27, 32}

// The campaign slice verifies sliceRuns runs of runLen consecutive float32
// patterns per function. Many short runs at seeded offsets, rather than one
// long one, give every seed the same mix of easy and hard inputs.
const (
	sliceRuns = 8
	runLen    = 512
	sliceLen  = sliceRuns * runLen
)

// campaignSlices draws the seeded campaign slice, one plan per function
// family: for the logarithms, runs within x in [0.9375, 1.125), where the
// known residuals lie; for the exponentials, runs within |x| in [1/16, 64),
// half of them mirrored to negative inputs.
func campaignSlices(rng *rand.Rand) []campaign.Config {
	slice := func(funcs []string, lo, hi uint64, mirror bool) campaign.Config {
		cfg := campaign.Config{
			Funcs:    funcs,
			Schemes:  campaign.AllSchemeNames(),
			Widths:   campaignWidths,
			Lanes:    []campaign.Lane{campaign.LaneFloat32},
			Stride:   1,
			UseFuncs: true,
			UnitSize: runLen,
		}
		// Runs come from disjoint strips of the window, so they never overlap.
		strip := (hi - lo) / sliceRuns
		for i := uint64(0); i < sliceRuns; i++ {
			start := lo + i*strip + uint64(rng.Int63n(int64(strip-runLen)))
			if mirror && i%2 == 1 {
				start |= 0x80000000
			}
			cfg.Ranges = append(cfg.Ranges, campaign.Range{Lo: start, Hi: start + runLen})
		}
		sort.Slice(cfg.Ranges, func(a, b int) bool { return cfg.Ranges[a].Lo < cfg.Ranges[b].Lo })
		return cfg
	}
	return []campaign.Config{
		slice([]string{"log", "log2", "log10"}, 0x3f700000, 0x3f900000, false),
		slice([]string{"exp", "exp2", "exp10"}, 0x3d800000, 0x42800000, true),
	}
}

// fingerprint hashes a generated implementation: every piece's bounds and
// coefficient bits and the special-case table.
func fingerprint(rs []*core.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) { binary.LittleEndian.PutUint64(b[:], math.Float64bits(v)); h.Write(b[:]) }
	for _, r := range rs {
		for _, p := range r.Pieces {
			put(p.Lo)
			put(p.Hi)
			for _, c := range p.Coeffs {
				put(c)
			}
		}
		keys := make([]uint64, 0, len(r.Specials))
		for k := range r.Specials {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			binary.LittleEndian.PutUint64(b[:], k)
			h.Write(b[:])
			put(r.Specials[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleCounts sums, over every function, the oracle's fresh Ziv-path
// computations and their escalation depths from the process registry.
func oracleCounts() (computes, escalations int64) {
	snap := obs.Default().Snapshot()
	for name, h := range snap.Histograms {
		switch {
		case strings.HasSuffix(name, "/ladder_start_prec"):
			computes += h.Count
		case strings.HasSuffix(name, "/ziv_depth"):
			escalations += h.Sum
		}
	}
	return computes, escalations
}

// runGenVerify is the gen_verify workload: closed-loop cycles of the
// generation set (core.GenerateAll at stride 1 with a fresh in-memory
// oracle cache and no persistent store) followed by the campaign slice
// against a cold oracle.
func runGenVerify(e *env, seconds float64, tr *recorder) (*report, error) {
	rep := newReport()
	spawns := 51
	if e.Probe {
		spawns = 3
	}
	setupTimes, _, err := childSetup("setup-gen", e.Seed, spawns)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.Seed))
	var plans []*campaign.Plan
	var ranges []campaign.Range
	inputs := 0
	for _, cfg := range campaignSlices(rng) {
		plan, err := campaign.NewPlan(cfg)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
		ranges = append(ranges, cfg.Ranges...)
		inputs += len(cfg.Funcs) * sliceLen
	}
	// One worker on one P: a second worker, or the garbage collector on a
	// second P, runs as fast as the host lets the second vCPU run, which on
	// a shared VM drifts from minute to minute and widened the spread
	// between runs several times over (README.md).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep.Checks["gomaxprocs"] = 1
	const workers = 1
	ctx := context.Background()

	var setTimes, rates, unitRates []float64
	prints := map[string]string{}
	var firstTotals *campaign.Totals
	var stats core.Stats
	var pieces int
	var campComputes int64
	comp0, esc0 := oracleCounts()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		span := tr.begin("gen_verify.cycle", 0)
		setTime := 0.0
		for _, it := range genSet {
			oracle.ResetLadders()
			cfg := core.Config{Fn: it.fn, Input: fp.Format{Bits: it.bits, ExpBits: 8}, Stride: 1,
				Seed: genLPSeed, Workers: workers}
			start := time.Now()
			rs, err := core.GenerateAll(ctx, cfg, genSchemes)
			end := time.Now()
			tr.add("core.GenerateAll", span, 0, start, end)
			rep.Tally.Attempted++
			if err != nil {
				rep.Tally.Errors++
				rep.Checks[fmt.Sprintf("generate_error_%v_%d", it.fn, it.bits)] = err.Error()
				continue
			}
			setTime += end.Sub(start).Seconds()
			if cycle == 0 {
				for _, r := range rs {
					stats.Iterations += r.Stats.Iterations
					stats.ConstrainEvents += r.Stats.ConstrainEvents
					stats.LPPivots += r.Stats.LPPivots
					stats.WarmResolves += r.Stats.WarmResolves
					stats.ColdSolves += r.Stats.ColdSolves
					stats.SolveTime += r.Stats.SolveTime
					pieces += len(r.Pieces)
				}
				stats.CollectTime += rs[0].Stats.CollectTime
				stats.OracleHits += rs[0].Stats.OracleHits
				stats.OracleMisses += rs[0].Stats.OracleMisses
				// Outside the clock, which is why the deadline moves: every
				// polynomial must be correct on every input of its width.
				vstart := time.Now()
				for _, r := range rs {
					rep.Tally.Attempted++
					if v := r.Verify(cfg.Input, 1, []int{10, it.bits}, fp.StandardModes); v.Wrong > 0 {
						rep.Tally.Mismatches++
						rep.Checks[fmt.Sprintf("verify_%v_%v_%d", it.fn, r.Scheme, it.bits)] = v.FirstWrong
					}
				}
				deadline = deadline.Add(time.Since(vstart))
				prints[it.String()] = fingerprint(rs)
			} else if fingerprint(rs) != prints[it.String()] {
				rep.Tally.Mismatches++ // the same configuration must generate the same bits
			}
		}
		setTimes = append(setTimes, setTime)

		oracle.ResetLadders()
		c0, _ := oracleCounts()
		start := time.Now()
		totals, err := runCampaign(ctx, plans, workers)
		end := time.Now()
		tr.add("campaign.Run", span, 0, start, end)
		tr.end(span)
		rep.Tally.Attempted++
		if err != nil {
			rep.Tally.Errors++
			rep.Checks["campaign_error"] = err.Error()
			continue
		}
		c1, _ := oracleCounts()
		campComputes = c1 - c0
		rates = append(rates, float64(inputs)/end.Sub(start).Seconds())
		unitRates = append(unitRates, float64(totals.UnitsDone)/end.Sub(start).Seconds())
		if firstTotals == nil {
			firstTotals = totals
		} else if !sameTallies(firstTotals, totals) {
			rep.Tally.Mismatches++
		}
	}
	comp1, esc1 := oracleCounts()
	if firstTotals == nil {
		return nil, errors.New("gen_verify: no campaign run completed")
	}
	if err := checkStoredTallies(e, firstTotals); err != nil {
		rep.Tally.Mismatches++
		rep.Checks["tally_file"] = err.Error()
	}
	rep.Checks["campaign_checked"] = firstTotals.Checked
	rep.Checks["campaign_wrong"] = firstTotals.Wrong
	rep.Checks["campaign_combos"] = firstTotals.Combos
	rep.Checks["campaign_ranges"] = ranges
	rep.Checks["fingerprints"] = prints

	gen := rep.dist("gen_s", setTimes)
	verify := rep.dist("verify_inputs_per_s", rates)
	setup := rep.dist("setup_s", setupTimes)
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	rep.named("gen_s", "s", gen.P50, gen)
	rep.named("verify_kinputs_per_s", "kinputs/s", verify.P50/1e3, verify)
	rep.e2e(mLatP50, "us", gen.P50*1e6, gen)
	rep.e2e(mThroughput, "1/s", verify.P50, verify)
	rep.e2e(mSetup, "s", setup.P50, setup)
	rep.e2e(mRSS, "MiB", rss, nil)
	if tr == nil {
		return rep, nil
	}

	rep.layer(lP99, "us", gen.Tail*1e6)
	rep.layer("core.collect_s", "s", stats.CollectTime.Seconds())
	rep.layer("core.solve_s", "s", stats.SolveTime.Seconds())
	rep.layer("core.iterations", "count", float64(stats.Iterations))
	rep.layer("core.constrain_events", "count", float64(stats.ConstrainEvents))
	rep.layer("core.pieces", "count", float64(pieces))
	rep.layer("lp.pivots", "count", float64(stats.LPPivots))
	rep.layer("lp.warm_resolves", "count", float64(stats.WarmResolves))
	rep.layer("lp.cold_solves", "count", float64(stats.ColdSolves))
	rep.layer("oracle.cache_hit_ratio", "ratio", float64(stats.OracleHits)/float64(max(stats.OracleHits+stats.OracleMisses, 1)))
	rep.layer("oracle.ziv_escalations_per_compute", "ratio", float64(esc1-esc0)/float64(max(comp1-comp0, 1)))
	rep.layer("campaign.units_per_s", "1/s", median(unitRates))
	rep.layer("campaign.checks", "count", float64(firstTotals.Checked))
	rep.layer("campaign.oracle_computes", "count", float64(campComputes))
	rep.layer("campaign.wrong", "count", float64(firstTotals.Wrong))
	computes, ivNs, roundNs := oracleProbe(rng, tr)
	rep.layer("oracle.computes_per_s", "1/s", computes)
	rep.layer("interval.ns_per_interval", "ns", ivNs)
	rep.layer("fp.round_ns", "ns", roundNs)
	return rep, nil
}

// runCampaign runs each plan with a fresh in-memory oracle cache and no
// checkpoint, and sums their totals.
func runCampaign(ctx context.Context, plans []*campaign.Plan, workers int) (*campaign.Totals, error) {
	sum := &campaign.Totals{}
	for _, p := range plans {
		eng := &campaign.Engine{Plan: p, Workers: workers, Cache: oracle.NewCache(0), Metrics: obs.NewRegistry()}
		t, err := eng.Run(ctx)
		if err != nil {
			return nil, err
		}
		sum.UnitsTotal += t.UnitsTotal
		sum.UnitsDone += t.UnitsDone
		sum.Checked += t.Checked
		sum.Wrong += t.Wrong
		sum.Combos = append(sum.Combos, t.Combos...)
	}
	return sum, nil
}

func sameTallies(a, b *campaign.Totals) bool {
	if a.Checked != b.Checked || a.Wrong != b.Wrong || len(a.Combos) != len(b.Combos) {
		return false
	}
	for i := range a.Combos {
		if a.Combos[i] != b.Combos[i] {
			return false
		}
	}
	return true
}

// checkStoredTallies compares the campaign tallies with those an earlier
// run of the same sources and seed recorded in this checkout, and records
// them when there are none: tallies must be identical across runs. The
// file is keyed on the hash of the Go sources built (PERFBENCH_SOURCE), so
// a change to the code, committed or not, starts a new record.
func checkStoredTallies(e *env, t *campaign.Totals) error {
	src := os.Getenv("PERFBENCH_SOURCE")
	if src == "" {
		return errors.New("PERFBENCH_SOURCE is not set; run the benchmark through run.py")
	}
	key := sha256.Sum256([]byte(src))
	path := filepath.Join(e.OutDir, fmt.Sprintf("campaign-tallies-seed%d-%x.json", e.Seed, key[:6]))
	cur, err := json.Marshal(t.Combos)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, cur, 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != string(cur) {
		return fmt.Errorf("campaign tallies differ from %s", path)
	}
	return nil
}

// oracleProbe times the oracle, interval and rounding layers directly over
// a seeded sample: cold CorrectRO34 computations per second, then the
// RO34 rounding interval of each result, then fp.Format.Round into the
// three serving formats under all five modes.
func oracleProbe(rng *rand.Rand, tr *recorder) (computesPerS, ivNs, roundNs float64) {
	type in struct {
		fn oracle.Func
		x  float64
	}
	var sample []in
	for i := 0; i < 1500; i++ {
		fn := oracle.Funcs[i%len(oracle.Funcs)]
		x := math.Ldexp(1+rng.Float64(), rng.Intn(8)-4)
		if fn.IsExpFamily() && rng.Intn(2) == 1 {
			x = -x
		}
		sample = append(sample, in{fn, float64(float32(x))})
	}
	oracle.ResetLadders()
	ys := make([]float64, len(sample))
	start := time.Now()
	for i, s := range sample {
		ys[i] = oracle.CorrectRO34(s.fn, s.x)
	}
	end := time.Now()
	tr.add("oracle.CorrectRO34", 0, 0, start, end)
	computesPerS = float64(len(sample)) / end.Sub(start).Seconds()

	const reps = 20
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, y := range ys {
			if iv, err := interval.RoundingRO34(y); err == nil {
				sink += iv.Lo
			}
		}
	}
	end = time.Now()
	tr.add("interval.RoundingRO34", 0, 0, start, end)
	ivNs = float64(end.Sub(start).Nanoseconds()) / float64(reps*len(ys))

	formats := []fp.Format{fp.Float32, fp.TensorFloat32, fp.Bfloat16}
	start = time.Now()
	n := 0
	for _, y := range ys {
		for _, f := range formats {
			for _, m := range fp.StandardModes {
				sink += f.Round(y, m)
				n++
			}
		}
	}
	end = time.Now()
	tr.add("fp.Round", 0, 0, start, end)
	roundNs = float64(end.Sub(start).Nanoseconds()) / float64(n)
	return computesPerS, ivNs, roundNs
}

// setupGen is the gen_verify workload's set-up in a fresh process: the
// polynomial-path domain of every generation item, one cold oracle
// computation per function (which builds the oracle's big-float
// constants), and the campaign plan.
func setupGen(seed int64) (map[string]float64, error) {
	start := time.Now()
	for _, it := range genSet {
		core.FindDomain(it.fn, fp.Format{Bits: it.bits + 2, ExpBits: 8})
	}
	for _, fn := range campaign.AllFuncNames() {
		ofn, err := oracle.ParseFunc(fn)
		if err != nil {
			return nil, err
		}
		sink += oracle.CorrectRO34(ofn, 0.75)
	}
	for _, cfg := range campaignSlices(rand.New(rand.NewSource(seed))) {
		if _, err := campaign.NewPlan(cfg); err != nil {
			return nil, err
		}
	}
	return map[string]float64{"setup_ms": float64(time.Since(start).Nanoseconds()) / 1e6}, nil
}
