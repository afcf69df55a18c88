package libm

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"rlibm/internal/fp"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"
)

// Progressive prefix kernels (RLIBM-PROG). For each generated implementation
// and each narrow serving precision, the emitter derives a prefix kernel from
// the same coefficient table: the polynomial truncated to the smallest degree
// whose result still lands in the precision's round-to-odd interval for every
// input of the output format, verified exhaustively at emit time against the
// full kernel.
//
// The verification needs no oracle: the full kernel's double lies in the
// 34-bit round-to-odd interval of the exact result, so its round-to-odd value
// at the precision's target width t (t <= 32) equals the exact one
// (round-to-odd composes across >= 2-bit precision gaps). A truncated
// evaluation t-agreeing with the full kernel therefore lies in the same
// round-to-odd interval as the exact result, and rounding it to the output
// format under any of the five IEEE modes is correct — the RLibm-ALL argument
// applied at 18/21 bits instead of 34.
//
// Because the check is exhaustive over the output format's inputs, the
// emitter can also drop cost from the prefix kernels and prove it safe:
//
//   - special-case table entries whose truncated polynomial value already
//     rounds identically are omitted (most do — the table absorbs 34-bit
//     misrounds far below the 18/21-bit granularity), leaving at most a
//     residual switch;
//   - when one polynomial piece truncates into a prefix that verifies over
//     the whole reduced domain, the piecewise dispatch collapses to that
//     single straight-line body.

// prefixPlan is the verified shape of one prefix kernel.
type prefixPlan struct {
	degree    int  // truncated polynomial degree
	collapsed bool // single piece serves the whole reduced domain

	evs []*poly.Evaluator // truncated evaluator per dispatch arm
	los []float64         // piece lower bounds, parallel to evs

	specialBits []uint64  // residual special inputs (sorted float64 bits)
	specialVals []float64 // their outputs, pre-rounded to the output format
}

// famOps carries the per-family reduction hooks in both runtime and codegen
// form, so the emit-time sweep evaluates exactly what the emitted code will.
type famOps struct {
	reduce     func(float64) (float64, rangered.Key)
	compensate func(float64, rangered.Key) float64
	pZero      float64
	isLog      bool

	reduceExpr, compExpr, pZeroExpr string
}

func famFor(fn string) (famOps, error) {
	switch fn {
	case "exp":
		return famOps{rangered.ReduceExp, rangered.CompensateExpFamily, 1, false,
			"rangered.ReduceExp(x)", "rangered.CompensateExpFamily", "1"}, nil
	case "exp2":
		return famOps{rangered.ReduceExp2, rangered.CompensateExpFamily, 1, false,
			"rangered.ReduceExp2(x)", "rangered.CompensateExpFamily", "1"}, nil
	case "exp10":
		return famOps{rangered.ReduceExp10, rangered.CompensateExpFamily, 1, false,
			"rangered.ReduceExp10(x)", "rangered.CompensateExpFamily", "1"}, nil
	case "log":
		return famOps{rangered.ReduceLog, rangered.CompensateLn, 0, true,
			"rangered.ReduceLog(x)", "rangered.CompensateLn", "0"}, nil
	case "log2":
		return famOps{rangered.ReduceLog, rangered.CompensateLog2, 0, true,
			"rangered.ReduceLog(x)", "rangered.CompensateLog2", "0"}, nil
	case "log10":
		return famOps{rangered.ReduceLog, rangered.CompensateLog10, 0, true,
			"rangered.ReduceLog(x)", "rangered.CompensateLog10", "0"}, nil
	}
	return famOps{}, fmt.Errorf("unknown function %q", fn)
}

func polySchemeOf(s Scheme) poly.Scheme {
	switch s {
	case SchemeHorner:
		return poly.Horner
	case SchemeKnuth:
		return poly.Knuth
	case SchemeEstrin:
		return poly.Estrin
	default:
		return poly.EstrinFMA
	}
}

// evalDouble runs the plan's polynomial path at x — the pre-rounding double
// the emitted kernel computes, minus the outer special switch the caller has
// already filtered.
func (pl *prefixPlan) evalDouble(fam *famOps, x float64) float64 {
	r, k := fam.reduce(x)
	if r == 0 {
		return fam.compensate(fam.pZero, k)
	}
	ev := pl.evs[0]
	for i := 1; i < len(pl.evs); i++ {
		if r >= pl.los[i] {
			ev = pl.evs[i]
		}
	}
	return fam.compensate(ev.Eval(r), k)
}

// fullKernelDouble is the full-degree raw double of the fam function's
// table fd under s.
func fullKernelDouble(fam *famOps, fd *funcData, s Scheme, x float64) float64 {
	if fam.isLog {
		return logFamily64(x, fd, s, fam.compensate)
	}
	return expFamily64(x, fd, s, fam.reduce)
}

// planPrefix derives the verified prefix plan for one implementation and
// precision.
func planPrefix(fn string, fd *funcData, s Scheme, ps PrecSpec) (*prefixPlan, error) {
	fam, err := famFor(fn)
	if err != nil {
		return nil, err
	}
	impl := &fd.impls[s]

	// The verification grid: every output-format input that reaches the
	// polynomial path. Plateau and IEEE special inputs take the same
	// constant branches in the prefix kernel (with emit-time-rounded
	// constants), so they agree by construction.
	type sample struct {
		x       float64
		fullRTO float64 // full kernel result rounded to the target via RTO
		special bool    // full kernel served it from the special-case table
	}
	var grid []sample
	ps.Out.FiniteValues(func(_ uint64, v float64) bool {
		if v == 0 {
			return true
		}
		if fam.isLog {
			if v < 0 {
				return true
			}
		} else {
			if v <= fd.domLo || v >= fd.domHi {
				return true
			}
			if (v < 0 && v >= fd.tinyLo) || (v > 0 && v <= fd.tinyHi) {
				return true
			}
		}
		full := fullKernelDouble(&fam, fd, s, v)
		_, isSpec := impl.special(v)
		grid = append(grid, sample{x: v, fullRTO: ps.Target.Round(full, fp.RTO), special: isSpec})
		return true
	})

	maxDeg := 0
	for _, p := range impl.pieces {
		if d := len(p.coeffs) - 1; d > maxDeg {
			maxDeg = d
		}
	}

	build := func(pieces []pieceData, deg int) (*prefixPlan, error) {
		pl := &prefixPlan{degree: deg}
		for _, p := range pieces {
			n := deg + 1
			if n > len(p.coeffs) {
				n = len(p.coeffs)
			}
			ev, err := poly.NewEvaluator(polySchemeOf(s), poly.Poly(p.coeffs[:n]))
			if err != nil {
				return nil, err
			}
			pl.evs = append(pl.evs, ev)
			pl.los = append(pl.los, p.lo)
		}
		return pl, nil
	}

	// check sweeps the grid: a disagreement at a special-table input becomes
	// a residual special; anywhere else it sinks the candidate.
	check := func(pl *prefixPlan) (ok bool, spec []int) {
		for i := range grid {
			t := pl.evalDouble(&fam, grid[i].x)
			if math.Float64bits(ps.Target.Round(t, fp.RTO)) == math.Float64bits(grid[i].fullRTO) {
				continue
			}
			if grid[i].special {
				spec = append(spec, i)
				continue
			}
			return false, nil
		}
		return true, spec
	}

	var chosen *prefixPlan
	var chosenSpec []int
	for d := 1; d <= maxDeg && chosen == nil; d++ {
		pl, err := build(impl.pieces, d)
		if err != nil {
			continue // Knuth adaptation can be degenerate at a truncation; try deeper
		}
		if ok, sp := check(pl); ok {
			chosen, chosenSpec = pl, sp
		}
	}
	if chosen == nil {
		// Unreachable: at maxDeg the truncation is the full polynomial, which
		// t-agrees with itself at every non-special input.
		return nil, fmt.Errorf("%s/%v/%s: no verifying prefix degree", fn, s, ps.Name)
	}

	// Piece collapse: prefer a single straight-line body when the piece
	// covering r = 0 verifies over the whole reduced domain within one extra
	// degree — it removes the dispatch branches from the hot loop.
	if len(impl.pieces) > 1 {
		j := 0
		for i, p := range impl.pieces {
			if p.lo <= 0 {
				j = i
			}
		}
		limit := chosen.degree + 1
		if limit > maxDeg {
			limit = maxDeg
		}
		for d := 1; d <= limit; d++ {
			pl, err := build(impl.pieces[j:j+1], d)
			if err != nil {
				continue
			}
			pl.los[0] = math.Inf(-1)
			pl.collapsed = true
			if ok, sp := check(pl); ok {
				chosen, chosenSpec = pl, sp
				break
			}
		}
	}

	sort.Slice(chosenSpec, func(a, b int) bool {
		return math.Float64bits(grid[chosenSpec[a]].x) < math.Float64bits(grid[chosenSpec[b]].x)
	})
	for _, i := range chosenSpec {
		y, _ := impl.special(grid[i].x)
		chosen.specialBits = append(chosen.specialBits, math.Float64bits(grid[i].x))
		chosen.specialVals = append(chosen.specialVals, ps.Out.Round(y, fp.RNE))
	}
	return chosen, nil
}

func precIdent(name string) string {
	return strings.ToUpper(name[:1]) + name[1:]
}

func precRoundIdent(name string) string {
	return "round" + precIdent(name)
}

// emitOnePrefixFunc writes the scalar prefix kernel: the full kernel's shape
// with emit-time-rounded constant branches, the residual special switch, the
// truncated polynomial, and a round-to-nearest conversion to the output
// format on every computed path.
func emitOnePrefixFunc(w io.Writer, fn string, fd *funcData, s Scheme, ps PrecSpec, pl *prefixPlan, name string) error {
	fmt.Fprintf(w, "\n// %s is the %s %v prefix kernel for %s: a degree-%d prefix of the\n", name, fn, s, ps.Name, pl.degree)
	fmt.Fprintf(w, "// full polynomial, correctly rounded to %v for every %v input.\n", ps.Out, ps.Out)
	fmt.Fprintf(w, "func %s(x float64) float64 {\n", name)
	ret := func(indent, expr string, _ bool) string {
		return indent + "return " + expr
	}
	if err := emitPrefixKernelBody(w, fn, fd, ps, pl, 1, ret); err != nil {
		return err
	}
	fmt.Fprintf(w, "}\n")
	return nil
}

// emitOnePrefixBlockFunc writes the in-place block variant of a prefix
// kernel, mirroring emitOneBlockFunc.
func emitOnePrefixBlockFunc(w io.Writer, fn string, fd *funcData, s Scheme, ps PrecSpec, pl *prefixPlan, name string) error {
	fmt.Fprintf(w, "\n// %s applies the %s %v %s prefix kernel to every element of b in place.\n", name, fn, s, ps.Name)
	fmt.Fprintf(w, "func %s(b []float64) {\n", name)
	fmt.Fprintf(w, "\tfor i, x := range b {\n")
	ret := func(indent, expr string, last bool) string {
		if last {
			return indent + "b[i] = " + expr
		}
		return indent + "b[i] = " + expr + "\n" + indent + "continue"
	}
	if err := emitPrefixKernelBody(w, fn, fd, ps, pl, 2, ret); err != nil {
		return err
	}
	fmt.Fprintf(w, "\t}\n}\n")
	return nil
}

func emitPrefixKernelBody(w io.Writer, fn string, fd *funcData, ps PrecSpec, pl *prefixPlan, depth int, ret func(indent, expr string, last bool) string) error {
	ind := strings.Repeat("\t", depth)
	ind2 := ind + "\t"
	// Rounding a plateau constant to the output format can overflow to
	// infinity (e.g. exp's top plateau: the RO34 saturation double rounds to
	// +Inf at 8-bit precision), which hexF spells as math.Inf(1).
	rnd := func(v float64) string { return hexF(ps.Out.Round(v, fp.RNE)) }
	if strings.HasPrefix(fn, "log") {
		fmt.Fprintf(w, "%sswitch {\n", ind)
		fmt.Fprintf(w, "%scase math.IsNaN(x):\n%s\n", ind, ret(ind2, "x", false))
		fmt.Fprintf(w, "%scase x < 0 || math.IsInf(x, -1):\n%s\n", ind, ret(ind2, "math.NaN()", false))
		fmt.Fprintf(w, "%scase x == 0:\n%s\n", ind, ret(ind2, "math.Inf(-1)", false))
		fmt.Fprintf(w, "%scase math.IsInf(x, 1):\n%s\n%s}\n", ind, ret(ind2, "math.Inf(1)", false), ind)
	} else {
		fmt.Fprintf(w, "%sswitch {\n", ind)
		fmt.Fprintf(w, "%scase math.IsNaN(x):\n%s\n", ind, ret(ind2, "x", false))
		fmt.Fprintf(w, "%scase math.IsInf(x, 1):\n%s\n", ind, ret(ind2, "math.Inf(1)", false))
		fmt.Fprintf(w, "%scase math.IsInf(x, -1):\n%s\n", ind, ret(ind2, "0", false))
		fmt.Fprintf(w, "%scase x == 0:\n%s\n", ind, ret(ind2, "1", false))
		fmt.Fprintf(w, "%scase x <= %s:\n%s\n", ind, hexF(fd.domLo), ret(ind2, rnd(fd.loVal), false))
		fmt.Fprintf(w, "%scase x >= %s:\n%s\n", ind, hexF(fd.domHi), ret(ind2, rnd(fd.hiVal), false))
		fmt.Fprintf(w, "%scase x < 0 && x >= %s:\n%s\n", ind, hexF(fd.tinyLo), ret(ind2, rnd(fd.tinyLoVal), false))
		fmt.Fprintf(w, "%scase x > 0 && x <= %s:\n%s\n", ind, hexF(fd.tinyHi), ret(ind2, rnd(fd.tinyHiVal), false))
		fmt.Fprintf(w, "%s}\n", ind)
	}

	if len(pl.specialBits) > 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, b := range pl.specialBits {
			v := math.Float64frombits(b)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Fprintf(w, "%sif x >= %s && x <= %s {\n", ind, hexF(lo), hexF(hi))
		fmt.Fprintf(w, "%sswitch math.Float64bits(x) {\n", ind2)
		for i, b := range pl.specialBits {
			fmt.Fprintf(w, "%scase %#x:\n%s\n", ind2, b, ret(ind2+"\t", hexF(pl.specialVals[i]), false))
		}
		fmt.Fprintf(w, "%s}\n%s}\n", ind2, ind)
	}

	fam, err := famFor(fn)
	if err != nil {
		return err
	}
	round := precRoundIdent(ps.Name)
	fmt.Fprintf(w, "%sr, k := %s\n", ind, fam.reduceExpr)
	fmt.Fprintf(w, "%sif r == 0 {\n%s\n%s}\n", ind,
		ret(ind2, round+"("+fam.compExpr+"("+fam.pZeroExpr+", k))", false), ind)
	fmt.Fprintf(w, "%svar p float64\n", ind)
	emitPrefixDispatch(w, pl.evs, pl.los, depth)
	fmt.Fprintf(w, "%s\n", ret(ind, round+"("+fam.compExpr+"(p, k))", true))
	return nil
}

// emitPrefixDispatch writes nested if/else piece selection over the
// truncated evaluators — the same binary split as the full kernels, minus
// the arms a collapsed plan no longer needs.
func emitPrefixDispatch(w io.Writer, evs []*poly.Evaluator, los []float64, depth int) {
	indent := strings.Repeat("\t", depth)
	if len(evs) == 1 {
		lines, result := evs[0].GenEval("r", fmt.Sprintf("t%d_", depth))
		for _, l := range lines {
			fmt.Fprintf(w, "%s%s\n", indent, l)
		}
		fmt.Fprintf(w, "%sp = %s\n", indent, result)
		return
	}
	mid := len(evs) / 2
	fmt.Fprintf(w, "%sif r < %s {\n", indent, hexF(los[mid]))
	emitPrefixDispatch(w, evs[:mid], los[:mid], depth+1)
	fmt.Fprintf(w, "%s} else {\n", indent)
	emitPrefixDispatch(w, evs[mid:], los[mid:], depth+1)
	fmt.Fprintf(w, "%s}\n", indent)
}
