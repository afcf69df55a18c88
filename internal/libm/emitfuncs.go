package libm

import (
	"fmt"
	"go/format"
	"io"
	"math"
	"sort"
	"strings"

	"rlibm/internal/poly"
)

// emitFuncsFile renders zz_generated_funcs.go, the straight-line function
// backend: one standalone Go function per implementation of fns — the shape
// of the artifact's generated C sources. The polynomial bodies come from
// running the scheme's generic DAG interpreter under the code-generating Ops
// (internal/poly), so they execute exactly the operation sequence the
// pipeline validated; a test asserts bit-identity against the data-driven
// backend.
func emitFuncsFile(fns []genFunc) ([]byte, error) {
	var raw strings.Builder
	if err := emitGeneratedFuncs(&raw, fns); err != nil {
		return nil, err
	}
	// gofmt the emission so the committed file is format-clean regardless of
	// how carefully the emitter aligned composite literals.
	src, err := format.Source([]byte(raw.String()))
	if err != nil {
		return nil, fmt.Errorf("generated source does not parse: %w", err)
	}
	return src, nil
}

func emitGeneratedFuncs(w io.Writer, fns []genFunc) error {
	fmt.Fprintf(w, "// Code generated by rlibm-gen. DO NOT EDIT.\n//\n")
	fmt.Fprintf(w, "// Straight-line function backend emitted from the embedded generation\n")
	fmt.Fprintf(w, "// data; see Emit.\n")
	fmt.Fprintf(w, "\npackage libm\n\nimport (\n\t\"math\"\n\n\t\"rlibm/internal/rangered\"\n)\n\n")
	fmt.Fprintf(w, "var _ = math.FMA // not every generated body uses the fused ops\n\n")

	type entry struct {
		key  string
		name string
	}
	var entries []entry
	var bodies strings.Builder
	for _, g := range fns {
		for _, s := range Schemes {
			name := funcIdent(g.name, s)
			entries = append(entries, entry{key: g.name + "/" + s.String(), name: name})
			if err := emitOneFunc(&bodies, g.name, g.data, s, name); err != nil {
				return fmt.Errorf("%s/%v: %w", g.name, s, err)
			}
			if err := emitOneBlockFunc(&bodies, g.name, g.data, s, name+"Block"); err != nil {
				return fmt.Errorf("%s/%v block: %w", g.name, s, err)
			}
			emitOneBatchFunc(&bodies, g.name, s, name)
			vspec, err := vecSpecFull(g.name, g.data, s, name)
			if err != nil {
				return fmt.Errorf("%s/%v vec: %w", g.name, s, err)
			}
			if err := emitVecKernel(&bodies, vspec); err != nil {
				return fmt.Errorf("%s/%v vec: %w", g.name, s, err)
			}
			emitVecBatchFuncs(&bodies, name)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	fmt.Fprintf(w, "// GeneratedFuncs indexes the straight-line backend by \"func/scheme\".\n")
	fmt.Fprintf(w, "var GeneratedFuncs = map[string]func(float64) float64{\n")
	for _, e := range entries {
		fmt.Fprintf(w, "\t%q: %s,\n", e.key, e.name)
	}
	fmt.Fprintf(w, "}\n\n")
	fmt.Fprintf(w, "// GeneratedBlockFuncs indexes the in-place block backend by \"func/scheme\".\n")
	fmt.Fprintf(w, "// Each kernel runs the same operation sequence as its GeneratedFuncs\n")
	fmt.Fprintf(w, "// counterpart on every element, so outputs are bit-identical, but the body\n")
	fmt.Fprintf(w, "// is inlined into the loop: no per-element call, and the float32 widening\n")
	fmt.Fprintf(w, "// moves out of the kernel's dependency chain (see pkg/rlibm).\n")
	fmt.Fprintf(w, "var GeneratedBlockFuncs = map[string]func([]float64){\n")
	for _, e := range entries {
		fmt.Fprintf(w, "\t%q: %sBlock,\n", e.key, e.name)
	}
	fmt.Fprintf(w, "}\n\n")
	fmt.Fprintf(w, "// GeneratedBatchFuncs indexes the float32 batch backend by \"func/scheme\".\n")
	fmt.Fprintf(w, "// Each batch kernel streams src through its block kernel one stack-resident\n")
	fmt.Fprintf(w, "// %d-element float64 block at a time (widen, evaluate in place, narrow) and\n", emitBatchBlockLen)
	fmt.Fprintf(w, "// performs no heap allocation. dst must be at least as long as src; extra\n")
	fmt.Fprintf(w, "// elements are left untouched. Results are bit-identical to the scalar\n")
	fmt.Fprintf(w, "// kernel: dst[i] == float32(GeneratedFuncs[key](float64(src[i]))).\n")
	fmt.Fprintf(w, "var GeneratedBatchFuncs = map[string]func(dst, src []float32){\n")
	for _, e := range entries {
		fmt.Fprintf(w, "\t%q: %sBatch,\n", e.key, e.name)
	}
	fmt.Fprintf(w, "}\n\n")
	fmt.Fprintf(w, "// GeneratedVecBlockFuncs indexes the vectorizable block backend by\n")
	fmt.Fprintf(w, "// \"func/scheme\": %d-lane groups with struct-of-arrays range reduction and\n", emitVecLanes)
	fmt.Fprintf(w, "// a branch-free polynomial loop (bit-select masks replace the special\n")
	fmt.Fprintf(w, "// switch, piece dispatch and r == 0 branch). Groups containing any special\n")
	fmt.Fprintf(w, "// input, and tails, run the scalar-body block kernel, so every entry is\n")
	fmt.Fprintf(w, "// bit-identical to its GeneratedBlockFuncs counterpart on every input.\n")
	fmt.Fprintf(w, "var GeneratedVecBlockFuncs = map[string]func([]float64){\n")
	for _, e := range entries {
		fmt.Fprintf(w, "\t%q: %sVecBlock,\n", e.key, e.name)
	}
	fmt.Fprintf(w, "}\n\n")
	fmt.Fprintf(w, "// GeneratedVecBatchFuncs indexes the float32 batch form of the vector\n")
	fmt.Fprintf(w, "// block kernels by \"func/scheme\", with the GeneratedBatchFuncs contract\n")
	fmt.Fprintf(w, "// and bit-identical results.\n")
	fmt.Fprintf(w, "var GeneratedVecBatchFuncs = map[string]func(dst, src []float32){\n")
	for _, e := range entries {
		fmt.Fprintf(w, "\t%q: %sVecBatch,\n", e.key, e.name)
	}
	fmt.Fprintf(w, "}\n\n")
	fmt.Fprintf(w, "// GeneratedAsmBatchFuncs indexes the assembly-staged batch form by\n")
	fmt.Fprintf(w, "// \"func/scheme\": the vector block kernels with the float32 widen/narrow\n")
	fmt.Fprintf(w, "// staging run as SIMD conversion instructions when AsmConvAvailable, plain\n")
	fmt.Fprintf(w, "// Go loops otherwise. Both conversions are exact/RNE, so results remain\n")
	fmt.Fprintf(w, "// bit-identical to the scalar kernel either way.\n")
	fmt.Fprintf(w, "var GeneratedAsmBatchFuncs = map[string]func(dst, src []float32){\n")
	for _, e := range entries {
		fmt.Fprintf(w, "\t%q: %sAsmBatch,\n", e.key, e.name)
	}
	fmt.Fprintf(w, "}\n\n")
	fmt.Fprintf(w, "// generatedBatchBlock is the element count of the batch kernels' on-stack\n")
	fmt.Fprintf(w, "// conversion block.\n")
	fmt.Fprintf(w, "const generatedBatchBlock = %d\n\n", emitBatchBlockLen)
	fmt.Fprintf(w, "// generatedVecLanes is the lane-group width of the vector block kernels;\n")
	fmt.Fprintf(w, "// generatedBatchBlock is a multiple, so batch staging blocks split into\n")
	fmt.Fprintf(w, "// whole groups.\n")
	fmt.Fprintf(w, "const generatedVecLanes = %d\n", emitVecLanes)
	_, err := io.WriteString(w, bodies.String())
	return err
}

// emitBatchBlockLen is the block length the emitted batch kernels use: long
// enough to amortize the block-kernel call and the loop setup, short enough
// that the float64 staging block (8 bytes per element) stays comfortably in
// stack frames and L1.
const emitBatchBlockLen = 256

// emitOneBatchFunc writes the float32 batch wrapper around a block kernel.
// The staging buffer lives inside the generated function and the block kernel
// is called by name, so escape analysis keeps the buffer on the stack — this
// is why the wrapper is generated per kernel rather than written once over a
// func value.
func emitOneBatchFunc(w io.Writer, fn string, s Scheme, name string) {
	fmt.Fprintf(w, "\n// %sBatch evaluates the %s %v kernel over src into dst, one on-stack\n", name, fn, s)
	fmt.Fprintf(w, "// float64 block at a time; see GeneratedBatchFuncs for the contract.\n")
	emitBatchWrapper(w, name+"Batch", name+"Block", false)
}

// emitBatchWrapper writes the body shared by every float32 batch form: stage
// a block of src into an on-stack float64 buffer, run the named block kernel
// in place, narrow back into dst. asmConv routes the conversions through the
// widenF32/narrowF32 staging helpers (AVX on capable amd64) instead of plain
// Go loops; both are bit-identical, so every wrapper over the same block
// kernel produces the same dst. The caller writes the doc comment.
func emitBatchWrapper(w io.Writer, name, block string, asmConv bool) {
	fmt.Fprintf(w, "func %s(dst, src []float32) {\n", name)
	fmt.Fprintf(w, "\t_ = dst[:len(src)]\n")
	fmt.Fprintf(w, "\tvar buf [generatedBatchBlock]float64\n")
	fmt.Fprintf(w, "\tfor base := 0; base < len(src); base += generatedBatchBlock {\n")
	fmt.Fprintf(w, "\t\tn := len(src) - base\n")
	fmt.Fprintf(w, "\t\tif n > generatedBatchBlock {\n\t\t\tn = generatedBatchBlock\n\t\t}\n")
	fmt.Fprintf(w, "\t\tb := buf[:n]\n")
	fmt.Fprintf(w, "\t\tsb := src[base : base+n]\n")
	if asmConv {
		fmt.Fprintf(w, "\t\twidenF32(b, sb)\n")
	} else {
		fmt.Fprintf(w, "\t\tfor i := range b {\n\t\t\tb[i] = float64(sb[i])\n\t\t}\n")
	}
	fmt.Fprintf(w, "\t\t%s(b)\n", block)
	fmt.Fprintf(w, "\t\tdb := dst[base : base+n]\n")
	if asmConv {
		fmt.Fprintf(w, "\t\tnarrowF32(db, b)\n")
	} else {
		fmt.Fprintf(w, "\t\tfor i := range db {\n\t\t\tdb[i] = float32(b[i])\n\t\t}\n")
	}
	fmt.Fprintf(w, "\t}\n}\n")
}

// emitVecBatchFuncs writes the two float32 batch forms over a vector block
// kernel: VecBatch (Go staging loops) and AsmBatch (assembly conversion
// staging where available, identical semantics where not).
func emitVecBatchFuncs(w io.Writer, name string) {
	fmt.Fprintf(w, "\n// %sVecBatch is %sBatch over the vector block kernel.\n", name, name)
	emitBatchWrapper(w, name+"VecBatch", name+"VecBlock", false)
	fmt.Fprintf(w, "\n// %sAsmBatch is %sVecBatch with the float32 conversion staging run\n", name, name)
	fmt.Fprintf(w, "// through the assembly widen/narrow helpers where available.\n")
	emitBatchWrapper(w, name+"AsmBatch", name+"VecBlock", true)
}

func funcIdent(fn string, s Scheme) string {
	camel := strings.ToUpper(fn[:1]) + fn[1:]
	parts := strings.Split(s.String(), "-")
	for i, p := range parts {
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return "gen" + camel + strings.Join(parts, "")
}

func emitOneFunc(w io.Writer, fn string, fd *funcData, s Scheme, name string) error {
	fmt.Fprintf(w, "\n// %s is the generated %s implementation with %v evaluation.\n", name, fn, s)
	fmt.Fprintf(w, "func %s(x float64) float64 {\n", name)
	ret := func(indent, expr string, _ bool) string {
		return indent + "return " + expr
	}
	if err := emitKernelBody(w, fn, fd, s, 1, ret); err != nil {
		return err
	}
	fmt.Fprintf(w, "}\n")
	return nil
}

// emitOneBlockFunc writes the in-place block variant: the same kernel body
// wrapped in a loop over b, with every "return expr" rewritten to
// "b[i] = expr; continue". Inlining the body into the loop removes the
// per-element call and lets the scheduler overlap iterations.
func emitOneBlockFunc(w io.Writer, fn string, fd *funcData, s Scheme, name string) error {
	fmt.Fprintf(w, "\n// %s applies the %s %v kernel to every element of b in place.\n", name, fn, s)
	fmt.Fprintf(w, "func %s(b []float64) {\n", name)
	fmt.Fprintf(w, "\tfor i, x := range b {\n")
	ret := func(indent, expr string, last bool) string {
		if last {
			return indent + "b[i] = " + expr
		}
		return indent + "b[i] = " + expr + "\n" + indent + "continue"
	}
	if err := emitKernelBody(w, fn, fd, s, 2, ret); err != nil {
		return err
	}
	fmt.Fprintf(w, "\t}\n}\n")
	return nil
}

// emitKernelBody writes one kernel body at the given indent depth. ret
// renders a result statement ("return expr" in the scalar form, an element
// store in the block form); last marks the statement that falls off the end
// of the body.
func emitKernelBody(w io.Writer, fn string, fd *funcData, s Scheme, depth int, ret func(indent, expr string, last bool) string) error {
	ind := strings.Repeat("\t", depth)
	ind2 := ind + "\t"
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
		fmt.Fprintf(w, "%scase x <= %s:\n%s\n", ind, hexF(fd.domLo), ret(ind2, hexF(fd.loVal), false))
		fmt.Fprintf(w, "%scase x >= %s:\n%s\n", ind, hexF(fd.domHi), ret(ind2, hexF(fd.hiVal), false))
		fmt.Fprintf(w, "%scase x < 0 && x >= %s:\n%s\n", ind, hexF(fd.tinyLo), ret(ind2, hexF(fd.tinyLoVal), false))
		fmt.Fprintf(w, "%scase x > 0 && x <= %s:\n%s\n", ind, hexF(fd.tinyHi), ret(ind2, hexF(fd.tinyHiVal), false))
		fmt.Fprintf(w, "%s}\n", ind)
	}

	impl := &fd.impls[s]
	if len(impl.specialBits) > 0 {
		// Guard the bit-pattern switch with a range check so the common case
		// (an input outside the exact-value span) pays two predictable
		// compares instead of walking the switch's compare chain — that chain
		// dominates the block variant's per-element cost when left unguarded.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, b := range impl.specialBits {
			v := math.Float64frombits(b)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Fprintf(w, "%sif x >= %s && x <= %s {\n", ind, hexF(lo), hexF(hi))
		fmt.Fprintf(w, "%sswitch math.Float64bits(x) {\n", ind2)
		for i, b := range impl.specialBits {
			fmt.Fprintf(w, "%scase %#x:\n%s\n", ind2, b, ret(ind2+"\t", hexF(impl.specialVals[i]), false))
		}
		fmt.Fprintf(w, "%s}\n%s}\n", ind2, ind)
	}

	fam, err := famFor(fn)
	if err != nil {
		return err
	}
	pZero := fmt.Sprintf("%g", fam.pZero)
	fmt.Fprintf(w, "%sr, k := %s\n", ind, fam.reduceExpr)
	fmt.Fprintf(w, "%sif r == 0 {\n%s\n%s}\n", ind, ret(ind2, fam.compExpr+"("+pZero+", k)", false), ind)
	fmt.Fprintf(w, "%svar p float64\n", ind)
	if err := emitPieceDispatch(w, s, impl.pieces, depth); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", ret(ind, fam.compExpr+"(p, k)", true))
	return nil
}

// emitPieceDispatch writes nested if/else piece selection with straight-line
// polynomial bodies.
func emitPieceDispatch(w io.Writer, s Scheme, pieces []pieceData, depth int) error {
	indent := strings.Repeat("\t", depth)
	if len(pieces) == 1 {
		ev, err := evaluatorFor(s, pieces[0])
		if err != nil {
			return err
		}
		lines, result := ev.GenEval("r", fmt.Sprintf("t%d_", depth))
		for _, l := range lines {
			fmt.Fprintf(w, "%s%s\n", indent, l)
		}
		fmt.Fprintf(w, "%sp = %s\n", indent, result)
		return nil
	}
	mid := len(pieces) / 2
	fmt.Fprintf(w, "%sif r < %s {\n", indent, hexF(pieces[mid].lo))
	if err := emitPieceDispatch(w, s, pieces[:mid], depth+1); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s} else {\n", indent)
	if err := emitPieceDispatch(w, s, pieces[mid:], depth+1); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s}\n", indent)
	return nil
}

// famOps is one function's range reduction and output compensation in
// codegen form, shared by the scalar-body and vector kernel emitters.
type famOps struct {
	reduceExpr, compExpr string
	pZero                float64 // the polynomial's exact value at r == 0
}

func famFor(fn string) (famOps, error) {
	switch fn {
	case "exp":
		return famOps{"rangered.ReduceExp(x)", "rangered.CompensateExpFamily", 1}, nil
	case "exp2":
		return famOps{"rangered.ReduceExp2(x)", "rangered.CompensateExpFamily", 1}, nil
	case "exp10":
		return famOps{"rangered.ReduceExp10(x)", "rangered.CompensateExpFamily", 1}, nil
	case "log":
		return famOps{"rangered.ReduceLog(x)", "rangered.CompensateLn", 0}, nil
	case "log2":
		return famOps{"rangered.ReduceLog(x)", "rangered.CompensateLog2", 0}, nil
	case "log10":
		return famOps{"rangered.ReduceLog(x)", "rangered.CompensateLog10", 0}, nil
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

// evaluatorFor reconstructs the poly.Evaluator for a piece. For the Knuth
// variant NewEvaluator re-runs the adaptation, which is deterministic and
// reproduces the embedded alpha coefficients exactly (asserted).
func evaluatorFor(s Scheme, p pieceData) (*poly.Evaluator, error) {
	ev, err := poly.NewEvaluator(polySchemeOf(s), p.coeffs)
	if err != nil {
		return nil, err
	}
	if s == SchemeKnuth {
		var want []float64
		switch {
		case p.a4 != nil:
			want = p.a4[:]
		case p.a5 != nil:
			want = p.a5[:]
		case p.a6 != nil:
			want = p.a6[:]
		}
		got := ev.AdaptedCoeffs()
		if len(got) != len(want) {
			return nil, fmt.Errorf("adaptation shape drifted: %d vs %d alphas", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return nil, fmt.Errorf("adaptation drifted at alpha%d: %x vs %x", i, got[i], want[i])
			}
		}
	}
	return ev, nil
}
