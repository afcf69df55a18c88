package libm

import (
	"fmt"
	"io"
	"math"
	"strings"

	"rlibm/internal/poly"
)

// Vector block kernels. The scalar-body block kernels (emitOneBlockFunc)
// inline the kernel into a loop, but every element still walks the special
// switch, an unpredictable piecewise-dispatch branch and the r == 0 early
// return — branches that defeat both the compiler's and the out-of-order
// core's ability to overlap elements. The vector form restructures the same
// computation into fixed-size lane groups with the branches hoisted or
// bit-masked away:
//
//   - struct-of-arrays range reduction: a first loop reduces all lanes of
//     the group into local arrays (r plus, per family, the exact exp scale
//     or the log compensation key) and accumulates one "slow" flag from the
//     fast-path predicate;
//   - per-lane fix-up: lanes holding a special input (NaN, infinity, zero,
//     plateau, tiny, or an exact-value table input) are marked in loop A,
//     recomputed with the scalar kernel after the polynomial loop, and
//     overwrite whatever the branch-free body computed for them —
//     bit-identity for the hard cases by construction, at a cost only the
//     special lanes themselves pay (the branch-free loops never branch on
//     the marks);
//   - branch-free polynomial loop: piece selection becomes sign-bit counting
//     into a per-piece coefficient table, the r == 0 structural value is
//     folded in with a bit-select mask, and the body is the scheme's
//     math.FMA DAG — no branches at all, so the core pipelines the
//     independent lanes back to back.
//
// Results are bit-identical to the scalar kernel for every input: fast
// lanes run the same reduce, the same operation DAG over the same
// coefficients and the same compensation; slow lanes take the scalar kernel
// verbatim, and the sub-group tail takes the scalar-body block kernel.
// Garbage values the branch-free body computes for slow lanes before the
// fix-up overwrite are harmless: float-to-int conversions of non-finite
// values are well-defined in Go, and every table index is bounded by
// construction (masked reduction keys, piece counts). The emitted VecBatch/AsmBatch wrappers stage
// float32 traffic through these blocks exactly like the Batch wrappers do
// for the scalar-body blocks; AsmBatch additionally runs the widen/narrow
// staging loops as AVX conversion instructions where available (see
// conv_amd64.s).

// emitVecLanes is the lane-group width: wide enough that the out-of-order
// core can overlap the independent per-lane FMA chains, narrow enough that
// the struct-of-arrays staging stays in registers/L1. generatedBatchBlock (256)
// is a multiple, so batch staging blocks split into whole groups.
const emitVecLanes = 8

// vecSpec is everything the vector emitter needs for one kernel.
type vecSpec struct {
	fn       string // "exp", "log2", ...
	name     string // emitted identifier, e.g. genExpRlibmEstrinFmaVecBlock
	fallback string // scalar-body block kernel run for sub-group tails
	scalar   string // scalar kernel run per slow lane
	tab      string // coefficient table identifier ("" when single-piece)

	evs []*poly.Evaluator // evaluator per piece, ascending lower bounds
	los []float64         // piece lower bounds, parallel to evs

	specialBits []uint64 // exact-value inputs that must take the fallback
	ft          *FuncTable
}

// vecSpecFull builds the spec for a full-precision implementation.
func vecSpecFull(ft *FuncTable, s Scheme, name string) (*vecSpec, error) {
	st := &ft.Schemes[s]
	spec := &vecSpec{
		fn:          ft.Name,
		name:        name + "VecBlock",
		fallback:    name + "Block",
		scalar:      name,
		evs:         make([]*poly.Evaluator, 0, len(st.Pieces)),
		los:         make([]float64, 0, len(st.Pieces)),
		specialBits: st.SpecialBits,
		ft:          ft,
	}
	for _, p := range st.Pieces {
		ev, err := evaluatorFor(st.Scheme, p)
		if err != nil {
			return nil, err
		}
		spec.evs = append(spec.evs, ev)
		spec.los = append(spec.los, p.Lo)
	}
	if len(spec.evs) > 1 {
		spec.tab = name + "VecTab"
	}
	return spec, nil
}

// checkVecPieces verifies the property the shared polynomial body rests on:
// every piece evaluates the same operation DAG (same scheme, same
// coefficient count, same adaptation state), so one GenEvalCoeffs body over
// the selected table row reproduces each piece's GenEval exactly. It also
// rejects duplicate coefficient bit patterns within the lead piece — the
// value-keyed coefficient naming could not tell such positions apart.
// Single-piece kernels skip the duplicate check: they inline literals and
// never consult a table.
func checkVecPieces(spec *vecSpec) error {
	if len(spec.evs) == 1 {
		return nil
	}
	lead := spec.evs[0]
	leadC := lead.EvalCoeffs()
	seen := make(map[uint64]bool, len(leadC))
	for _, c := range leadC {
		b := math.Float64bits(c)
		if seen[b] {
			return fmt.Errorf("%s: duplicate coefficient %x defeats table naming", spec.name, c)
		}
		seen[b] = true
	}
	for i, ev := range spec.evs[1:] {
		if ev.Scheme != lead.Scheme {
			return fmt.Errorf("%s: piece %d scheme differs", spec.name, i+1)
		}
		if len(ev.EvalCoeffs()) != len(leadC) {
			return fmt.Errorf("%s: piece %d has %d coefficients, lead has %d",
				spec.name, i+1, len(ev.EvalCoeffs()), len(leadC))
		}
		if (ev.AdaptedCoeffs() != nil) != (lead.AdaptedCoeffs() != nil) {
			return fmt.Errorf("%s: piece %d adaptation state differs", spec.name, i+1)
		}
	}
	return nil
}

// emitVecTable writes the per-piece coefficient table of a multi-piece
// vector kernel: row i is piece i's evaluation coefficients (the
// Knuth-adapted alphas when adaptation is in effect, the ascending
// polynomial coefficients otherwise).
func emitVecTable(w io.Writer, spec *vecSpec) {
	if spec.tab == "" {
		return
	}
	fmt.Fprintf(w, "\n// %s holds the per-piece coefficient rows of %s, selected\n", spec.tab, spec.name)
	fmt.Fprintf(w, "// branch-free by sign-bit counting against the piece bounds.\n")
	fmt.Fprintf(w, "var %s = [%d][%d]float64{\n", spec.tab, len(spec.evs), len(spec.evs[0].EvalCoeffs()))
	for _, ev := range spec.evs {
		fmt.Fprintf(w, "\t{")
		for i, c := range ev.EvalCoeffs() {
			if i > 0 {
				fmt.Fprintf(w, ", ")
			}
			fmt.Fprintf(w, "%s", hexF(c))
		}
		fmt.Fprintf(w, "},\n")
	}
	fmt.Fprintf(w, "}\n")
}

// emitVecKernel writes one vector kernel: the coefficient table (when
// piecewise) and the block function. If the pieces cannot share a body —
// heterogeneous shapes or duplicate coefficients, which no current
// implementation exhibits — the vector name degrades to a wrapper over the
// scalar-body block kernel so the registries stay total and correct.
func emitVecKernel(w io.Writer, spec *vecSpec) error {
	if err := checkVecPieces(spec); err != nil {
		fmt.Fprintf(w, "\n// %s: pieces cannot share a branch-free body (%v);\n", spec.name, err)
		fmt.Fprintf(w, "// the vector form degrades to the scalar-body block kernel.\n")
		fmt.Fprintf(w, "func %s(b []float64) {\n\t%s(b)\n}\n", spec.name, spec.fallback)
		return nil
	}
	emitVecTable(w, spec)
	return emitVecBlockFunc(w, spec)
}

// vecExpReduceLines returns the inline form of the exp-family range
// reduction: the exact statement sequence of the corresponding
// rangered.Reduce* function, referencing the same exported constants.
func vecExpReduceLines(fn string) []string {
	var round, r string
	switch fn {
	case "exp":
		round = "n := math.Round(x * rangered.InvLn2x64)"
		r = "r := (x - n*rangered.Ln2x64Hi) - n*rangered.Ln2x64Lo"
	case "exp2":
		round = "n := math.Round(x * 64)"
		r = "r := x - n/64"
	case "exp10":
		round = "n := math.Round(x * rangered.InvLog10Of2x64)"
		r = "r := (x - n*rangered.Log10Of2x64Hi) - n*rangered.Log10Of2x64Lo"
	default:
		panic("libm: vecExpReduceLines on " + fn)
	}
	return []string{
		round,
		r,
		"ni := int32(n)",
		"k := rangered.Key{Q: ni >> 6, J: ni & 63}",
	}
}

// emitVecBlockFunc writes one vector block kernel body.
func emitVecBlockFunc(w io.Writer, spec *vecSpec) error {
	isLog := strings.HasPrefix(spec.fn, "log")
	fmt.Fprintf(w, "\n// %s applies the same kernel as %s to every element of b\n", spec.name, spec.fallback)
	fmt.Fprintf(w, "// in %d-lane groups: struct-of-arrays range reduction, then a branch-free\n", emitVecLanes)
	fmt.Fprintf(w, "// polynomial loop (bit-select masks instead of the special switch and piece\n")
	fmt.Fprintf(w, "// dispatch). Lanes holding special inputs are recomputed with the scalar\n")
	fmt.Fprintf(w, "// kernel afterwards, and the sub-group tail runs the scalar-body block\n")
	fmt.Fprintf(w, "// kernel, so outputs are bit-identical to %s for every\n", spec.fallback)
	fmt.Fprintf(w, "// input and length.\n")
	fmt.Fprintf(w, "func %s(b []float64) {\n", spec.name)
	fmt.Fprintf(w, "\tn := len(b) &^ (generatedVecLanes - 1)\n")
	fmt.Fprintf(w, "\tfor base := 0; base < n; base += generatedVecLanes {\n")
	fmt.Fprintf(w, "\t\tv := (*[generatedVecLanes]float64)(b[base:])\n")

	// Loop A: struct-of-arrays reduction plus the fast-path predicate.
	fam, err := famFor(spec.fn)
	if err != nil {
		return err
	}
	if isLog {
		fmt.Fprintf(w, "\t\tvar vr, vx [generatedVecLanes]float64\n")
		fmt.Fprintf(w, "\t\tvar vq, vj [generatedVecLanes]int32\n")
	} else {
		fmt.Fprintf(w, "\t\tvar vr, vs, vx [generatedVecLanes]float64\n")
	}
	fmt.Fprintf(w, "\t\tvar sl [generatedVecLanes]bool\n")
	fmt.Fprintf(w, "\t\tslow := false\n")
	fmt.Fprintf(w, "\t\tfor l := 0; l < generatedVecLanes; l++ {\n")
	fmt.Fprintf(w, "\t\t\tx := v[l]\n")
	fmt.Fprintf(w, "\t\t\tvx[l] = x\n")
	if isLog {
		fmt.Fprintf(w, "\t\t\tr, k := %s\n", fam.reduceExpr)
	} else {
		// The exp-family reductions embed math.Round, which pushes them
		// past the compiler's inlining budget — a call per lane would
		// dominate loop A. Emit the reduction body inline instead: the
		// identical operation sequence over the same exported constants,
		// so r and k match rangered.ReduceExp*(x) bit for bit.
		for _, ln := range vecExpReduceLines(spec.fn) {
			fmt.Fprintf(w, "\t\t\t%s\n", ln)
		}
	}
	fmt.Fprintf(w, "\t\t\tvr[l] = r\n")
	if isLog {
		fmt.Fprintf(w, "\t\t\tvq[l], vj[l] = k.Q, k.J\n")
		// The polynomial path serves exactly the positive finite reals; the
		// bit test folds NaN, infinities, zeros and negatives into one
		// unsigned comparison pair.
		fmt.Fprintf(w, "\t\t\tif bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {\n")
		fmt.Fprintf(w, "\t\t\t\tsl[l], slow = true, true\n\t\t\t}\n")
	} else {
		// CompensateExpFamily(1, k) is the exact scale T[j]*2^q (1*s == s
		// bitwise), so the final p*vs[l] below rounds exactly like the
		// scalar kernel's CompensateExpFamily(p, k).
		fmt.Fprintf(w, "\t\t\tvs[l] = rangered.CompensateExpFamily(1, k)\n")
		ft := spec.ft
		fmt.Fprintf(w, "\t\t\tif !(x > %s && x < %s && (x < %s || x > %s)) {\n",
			hexF(ft.DomLo), hexF(ft.DomHi), hexF(ft.TinyLo), hexF(ft.TinyHi))
		fmt.Fprintf(w, "\t\t\t\tsl[l], slow = true, true\n\t\t\t}\n")
	}
	if len(spec.specialBits) > 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		cases := make([]string, len(spec.specialBits))
		for i, bb := range spec.specialBits {
			val := math.Float64frombits(bb)
			lo, hi = math.Min(lo, val), math.Max(hi, val)
			cases[i] = fmt.Sprintf("%#x", bb)
		}
		fmt.Fprintf(w, "\t\t\tif x >= %s && x <= %s {\n", hexF(lo), hexF(hi))
		fmt.Fprintf(w, "\t\t\t\tswitch math.Float64bits(x) {\n")
		fmt.Fprintf(w, "\t\t\t\tcase %s:\n\t\t\t\t\tsl[l], slow = true, true\n", strings.Join(cases, ", "))
		fmt.Fprintf(w, "\t\t\t\t}\n\t\t\t}\n")
	}
	fmt.Fprintf(w, "\t\t}\n")

	// Loop B: the branch-free polynomial body. Slow lanes compute garbage
	// here (safely: conversions and table indexing are total) and are
	// overwritten by the fix-up loop below.
	fmt.Fprintf(w, "\t\tfor l := 0; l < generatedVecLanes; l++ {\n")
	fmt.Fprintf(w, "\t\t\tr := vr[l]\n")
	var lines []string
	var result string
	if spec.tab != "" {
		// sel counts the pieces whose lower bound r has reached: the lower
		// bounds ascend, so the count is the scalar dispatch's chosen index.
		// r - lo is +0 only when r == lo (fast lanes are finite), making the
		// sign bit an exact r >= lo on this path.
		fmt.Fprintf(w, "\t\t\tsel := (math.Float64bits(r-(%s)) >> 63) ^ 1\n", hexF(spec.los[1]))
		for _, lo := range spec.los[2:] {
			fmt.Fprintf(w, "\t\t\tsel += (math.Float64bits(r-(%s)) >> 63) ^ 1\n", hexF(lo))
		}
		fmt.Fprintf(w, "\t\t\tc := &%s[sel]\n", spec.tab)
		lines, result = spec.evs[0].GenEvalCoeffs("r", "tv_", func(i int) string {
			return fmt.Sprintf("c[%d]", i)
		})
	} else {
		lines, result = spec.evs[0].GenEval("r", "tv_")
	}
	for _, l := range lines {
		fmt.Fprintf(w, "\t\t\t%s\n", l)
	}
	// Fold the r == 0 structural value in with a bit-select: m is 1 for
	// r != 0 (covering -0, unreachable on fast lanes, for good measure) and
	// 0 for r == 0, where the scalar kernel serves Compensate(pZero, k).
	fmt.Fprintf(w, "\t\t\tz := math.Float64bits(r) << 1\n")
	fmt.Fprintf(w, "\t\t\tm := (z | -z) >> 63\n")
	if fam.pZero != 0 {
		fmt.Fprintf(w, "\t\t\tpb := math.Float64bits(%s)&-m | %#x&(m-1)\n",
			result, math.Float64bits(fam.pZero))
	} else {
		fmt.Fprintf(w, "\t\t\tpb := math.Float64bits(%s) & -m\n", result)
	}
	if isLog {
		fmt.Fprintf(w, "\t\t\tv[l] = %s(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})\n",
			fam.compExpr)
	} else {
		fmt.Fprintf(w, "\t\t\tv[l] = math.Float64frombits(pb) * vs[l]\n")
	}

	fmt.Fprintf(w, "\t\t}\n")

	// Per-lane fix-up: recompute marked lanes with the scalar kernel.
	fmt.Fprintf(w, "\t\tif slow {\n")
	fmt.Fprintf(w, "\t\t\tfor l := 0; l < generatedVecLanes; l++ {\n")
	fmt.Fprintf(w, "\t\t\t\tif sl[l] {\n")
	fmt.Fprintf(w, "\t\t\t\t\tv[l] = %s(vx[l])\n", spec.scalar)
	fmt.Fprintf(w, "\t\t\t\t}\n\t\t\t}\n\t\t}\n")

	fmt.Fprintf(w, "\t}\n")
	fmt.Fprintf(w, "\tif n != len(b) {\n\t\t%s(b[n:])\n\t}\n", spec.fallback)
	fmt.Fprintf(w, "}\n")
	return nil
}
