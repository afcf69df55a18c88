package core

import (
	"context"
	"fmt"
	"math"

	"rlibm/internal/fp"
	"rlibm/internal/interval"
	"rlibm/internal/lp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"

	"math/rand"
)

// This file implements RLIBM-PROG progressive polynomials: after a piece's
// full-degree polynomial is found, the LP is re-solved with the full
// constraints PLUS per-level prefix constraints, so ONE coefficient vector
// serves every configured narrow format through its leading coefficients.
// Each level k demands that the degree-d_k prefix lands in the round-to-odd
// interval of the level's (Bits+2)-bit target for every input representable
// in the level's format; round-to-odd composition then makes the prefix
// correctly rounded for the level format under all five standard modes.

// levelState is one progressive level's working state during a combined
// adaptLoop attempt. Interval shrinking and demotion happen on private
// copies (items/scratch) and are committed to the Result only when the
// whole attempt succeeds, so a failed prefix-degree probe leaves no trace.
type levelState struct {
	idx    int       // index into Result.Prefixes / Config.Progressive
	format fp.Format // narrow output format served by the prefix
	target fp.Format // the level's round-to-odd target (format.Bits + 2)
	prefix int       // leading coefficient count bound by this level

	items  []workItem
	live   []*workItem
	vals   []float64
	sample map[int]bool
	pev    *poly.Evaluator // prefix evaluator of the current LP solution

	scratch map[uint64]float64 // demotions pending this attempt's success
	budget  int
}

// newLevelState copies the level's merged work list into private state.
// Items whose sources are all already served by tables (the full special
// table composes down; the level table was filled by earlier rounds or
// buildLevelWork pre-demotion) start unconstrained.
func newLevelState(cfg *Config, res *Result, idx int, lw []*workItem, prefix int) *levelState {
	pl := &res.Prefixes[idx]
	st := &levelState{
		idx: idx, format: pl.Format, target: pl.Target, prefix: prefix,
		scratch: map[uint64]float64{},
		budget:  cfg.MaxSpecials - len(pl.Specials),
	}
	st.items = make([]workItem, len(lw))
	st.live = make([]*workItem, len(lw))
	for i, it := range lw {
		st.items[i] = *it
		if allSourcesSpecial(it.Sources, res.Specials, pl.Specials) {
			st.items[i].Iv = interval.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		}
		st.live[i] = &st.items[i]
	}
	st.vals = make([]float64, len(st.live))
	return st
}

// demote moves a level item's sources into the attempt's scratch table and
// unconstrains the item. Budget accounting mirrors demoteItem: charged per
// source, sources already in any table are free.
func (st *levelState) demote(cfg *Config, res *Result, it *workItem) error {
	pl := &res.Prefixes[st.idx]
	for _, xb := range it.Sources {
		if _, ok := res.Specials[xb]; ok {
			continue
		}
		if _, ok := pl.Specials[xb]; ok {
			continue
		}
		if _, ok := st.scratch[xb]; ok {
			continue
		}
		if st.budget <= 0 {
			return fmt.Errorf("%d-bit level special-case budget exhausted (%d)", st.format.Bits, cfg.MaxSpecials)
		}
		x := math.Float64frombits(xb)
		st.scratch[xb] = res.correct(x, st.target)
		st.budget--
	}
	it.Iv = interval.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	return nil
}

// commit publishes the attempt's scratch demotions into the Result.
func (st *levelState) commit(res *Result) {
	pl := &res.Prefixes[st.idx]
	for xb, y := range st.scratch {
		pl.Specials[xb] = y
	}
}

// allSourcesSpecial reports whether every source bit pattern appears in at
// least one of the tables.
func allSourcesSpecial(sources []uint64, tables ...map[uint64]float64) bool {
	for _, xb := range sources {
		covered := false
		for _, t := range tables {
			if _, ok := t[xb]; ok {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// buildLevelWork derives each progressive level's constraint list from the
// piece's full work list: for every source input representable in the level
// format (and not already served by the full table), the level target's
// round-to-odd interval is reduced and intersected with its reduction
// siblings. Inputs whose interval cannot be reduced or intersected are
// pre-demoted straight into the level's special table, exactly as collect
// does for the full target.
func buildLevelWork(cfg *Config, res *Result, work []*workItem) [][]*workItem {
	out := make([][]*workItem, len(res.Prefixes))
	for li := range res.Prefixes {
		pl := &res.Prefixes[li]
		var lw []*workItem
		for _, it := range work {
			var merged *workItem
			for _, xb := range it.Sources {
				x := math.Float64frombits(xb)
				if !pl.Format.IsRepresentable(x) {
					continue
				}
				if _, ok := res.Specials[xb]; ok {
					continue // the full table's round-to-odd value composes down
				}
				if _, ok := pl.Specials[xb]; ok {
					continue
				}
				y := res.correct(x, pl.Target)
				riv, ok := levelInterval(res.red, pl.Target, x, y)
				if !ok {
					pl.Specials[xb] = y
					continue
				}
				if merged == nil {
					merged = &workItem{R: it.R, Iv: riv, Sources: []uint64{xb}}
					continue
				}
				lo := math.Max(merged.Iv.Lo, riv.Lo)
				hi := math.Min(merged.Iv.Hi, riv.Hi)
				if lo > hi {
					pl.Specials[xb] = y
					continue
				}
				merged.Iv = interval.Interval{Lo: lo, Hi: hi}
				merged.Sources = append(merged.Sources, xb)
			}
			if merged != nil {
				lw = append(lw, merged)
			}
		}
		out[li] = lw
	}
	return out
}

// levelInterval computes the reduced rounding interval of a level-target
// round-to-odd result, or reports that the input must be a special case.
func levelInterval(red rangered.Reduction, target fp.Format, x, y float64) (interval.Interval, bool) {
	iv, err := interval.Rounding(y, target, fp.RTO)
	if err != nil {
		return interval.Interval{}, false
	}
	_, key := red.Reduce(x)
	return rangered.ReducedInterval(red, key, iv)
}

// solveProgressive runs the progressive rounds for one piece after its
// full-degree polynomial succeeded: levels are solved widest first, and for
// each level the shortest workable prefix degree is searched. Every round
// re-solves the COMBINED system — full constraints plus the fixed prefixes
// of already-committed levels plus the candidate level — reusing the
// piece's warm solver, so the final coefficients satisfy everything at
// once. On success the piece's coefficients are replaced by the combined
// solution and its prefix evaluators are bound.
func solveProgressive(ctx context.Context, cfg *Config, solver *lp.Solver, work []*workItem,
	degree int, rng *rand.Rand, res *Result, m *schemeMetrics, piece *Piece) error {

	levelWork := buildLevelWork(cfg, res, work)
	chosen := make([]int, len(levelWork)) // prefix coefficient counts
	var ev *poly.Evaluator
	for li := range levelWork {
		maxd := cfg.Progressive[li].MaxPrefixDegree
		if maxd <= 0 || maxd > degree {
			maxd = degree
		}
		solved := false
		for dk := 1; dk <= maxd; dk++ {
			states := make([]*levelState, li+1)
			for j := 0; j < li; j++ {
				states[j] = newLevelState(cfg, res, j, levelWork[j], chosen[j])
			}
			states[li] = newLevelState(cfg, res, li, levelWork[li], dk+1)
			ev2, err := adaptLoop(ctx, cfg, solver, work, degree, rng, res, m, states)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				cfg.Trace.Event("prefix.failed", obs.Attrs{
					"fn": cfg.Fn.String(), "scheme": cfg.Scheme.String(),
					"level": st8(res, li), "prefix_degree": dk, "error": err.Error(),
				})
				cfg.logf("  level %d (%d-bit) prefix degree %d failed: %v",
					li, res.Prefixes[li].Format.Bits, dk, err)
				continue
			}
			ev = ev2
			for _, st := range states {
				st.commit(res)
			}
			chosen[li] = dk + 1
			solved = true
			break
		}
		if !solved {
			return fmt.Errorf("progressive level %d (%d-bit): no prefix degree up to %d works with the degree-%d polynomial",
				li, res.Prefixes[li].Format.Bits, maxd, degree)
		}
	}
	piece.Coeffs, piece.Eval = ev.Coeffs, ev
	piece.PrefixEvals = make([]*poly.Evaluator, len(chosen))
	for li, pc := range chosen {
		pev, err := poly.NewEvaluator(cfg.Scheme, ev.Coeffs[:pc])
		if err != nil {
			return err
		}
		piece.PrefixEvals[li] = pev
		if pc-1 > res.Prefixes[li].Degree {
			res.Prefixes[li].Degree = pc - 1
		}
	}
	return nil
}

// st8 formats a level for trace attributes.
func st8(res *Result, li int) string {
	return fmt.Sprintf("%d/%d-bit", li, res.Prefixes[li].Format.Bits)
}

// EvalPrefix computes the level's double result for input x using only the
// prefix polynomial: the returned double, rounded to the level's format
// under any standard mode, is the correctly rounded value. Lookup order
// mirrors Eval — edge cases, then the level's special table, then the full
// special table (round-to-odd composes down across the >= 2-bit gap), then
// structural reduction points, then the prefix polynomial.
func (r *Result) EvalPrefix(x float64, level int) float64 {
	if v, done := r.edgeResult(x); done {
		return v
	}
	pl := &r.Prefixes[level]
	xb := math.Float64bits(x)
	if y, ok := pl.Specials[xb]; ok {
		return y
	}
	if y, ok := r.Specials[xb]; ok {
		return y
	}
	rv, key := r.red.Reduce(x)
	if pv, structural := r.red.ExactPoint(rv); structural {
		return r.red.Compensate(pv, key)
	}
	piece := &r.Pieces[0]
	for i := 1; i < len(r.Pieces); i++ {
		if rv >= r.Pieces[i].Lo {
			piece = &r.Pieces[i]
		}
	}
	p := piece.PrefixEvals[level].Eval(rv)
	return r.red.Compensate(p, key)
}

// VerifyPrefix checks one progressive level against the oracle for EVERY
// input of the level's format, across all five standard rounding modes —
// the per-level analogue of Verify. Small level formats make exhaustion
// cheap (bfloat16 has under 2^16 inputs).
func (r *Result) VerifyPrefix(level int, modes []fp.Mode) VerifyReport {
	pl := &r.Prefixes[level]
	ts := oracle.Targets{Widths: []int{pl.Format.Bits}, ExpBits: pl.Format.ExpBits, Modes: modes, SignlessZero: true}
	var rep VerifyReport
	n := pl.Format.Count()
	for b := uint64(0); b < n; b++ {
		x := pl.Format.FromBits(b)
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		if r.Fn.IsLog() && x <= 0 {
			continue
		}
		t := ts.Check(r.Fn, x, r.EvalPrefix(x, level))
		rep.Checked += t.Checked
		if t.Wrong > 0 {
			if rep.Wrong == 0 {
				rep.FirstWrong = fmt.Sprintf("%v(%g) level %d mode %v: got %g want %g",
					r.Fn, x, level, t.First.Mode, t.First.Got, t.First.Want)
			}
			rep.Wrong += t.Wrong
		}
	}
	return rep
}
