package libm

import (
	"math"

	"rlibm/internal/poly"
	"rlibm/internal/rangered"
)

// The reference interpreter: a plain evaluator over a Table, kept only in
// the tests. It walks the same special-case screen, range reduction, piece
// selection, polynomial scheme and output compensation as the emitted
// kernels, but from the table's data at run time, so a kernel that differs
// from it bit for bit was emitted wrongly.

// reference returns the interpreter for scheme s of ft as a raw double
// kernel with GeneratedFuncs' signature.
func reference(ft *FuncTable, s Scheme) func(float64) float64 {
	st := &ft.Schemes[s]
	switch ft.Name {
	case "exp":
		return func(x float64) float64 { return refExpFamily(x, ft, st, rangered.ReduceExp) }
	case "exp2":
		return func(x float64) float64 { return refExpFamily(x, ft, st, rangered.ReduceExp2) }
	case "exp10":
		return func(x float64) float64 { return refExpFamily(x, ft, st, rangered.ReduceExp10) }
	case "log":
		return func(x float64) float64 { return refLogFamily(x, st, rangered.CompensateLn) }
	case "log2":
		return func(x float64) float64 { return refLogFamily(x, st, rangered.CompensateLog2) }
	case "log10":
		return func(x float64) float64 { return refLogFamily(x, st, rangered.CompensateLog10) }
	}
	panic("libm: no reference for " + ft.Name)
}

// generatedFunc returns the table generatedTable holds for the named
// function.
func generatedFunc(name string) *FuncTable {
	for i := range generatedTable.Funcs {
		if generatedTable.Funcs[i].Name == name {
			return &generatedTable.Funcs[i]
		}
	}
	panic("libm: no generated table for " + name)
}

// refEvalPoly evaluates the scheme's piecewise polynomial at the reduced
// input.
func refEvalPoly(st *SchemeTable, r float64) float64 {
	p := &st.Pieces[0]
	for i := 1; i < len(st.Pieces); i++ {
		if r >= st.Pieces[i].Lo {
			p = &st.Pieces[i]
		}
	}
	switch st.Scheme {
	case poly.Horner:
		return poly.EvalHorner(p.Coeffs, r)
	case poly.Estrin:
		return poly.EvalEstrin(p.Coeffs, r)
	case poly.EstrinFMA:
		return poly.EvalEstrinFMA(p.Coeffs, r)
	case poly.Knuth:
		switch len(p.Adapted) {
		case 5:
			return poly.EvalAdapted4((*[5]float64)(p.Adapted), r)
		case 6:
			return poly.EvalAdapted5((*[6]float64)(p.Adapted), r)
		case 7:
			return poly.EvalAdapted6((*[7]float64)(p.Adapted), r)
		default:
			return poly.EvalHorner(p.Coeffs, r)
		}
	}
	panic("libm: unknown scheme")
}

// refSpecial looks x up in the scheme's special-case table.
func refSpecial(st *SchemeTable, x float64) (float64, bool) {
	b := math.Float64bits(x)
	for i, sb := range st.SpecialBits {
		if sb == b {
			return st.SpecialVals[i], true
		}
	}
	return 0, false
}

// refExpFamily is the shared double path of e^x, 2^x and 10^x.
func refExpFamily(x float64, ft *FuncTable, st *SchemeTable,
	reduce func(float64) (float64, rangered.Key)) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= ft.DomLo:
		return ft.LoVal
	case x >= ft.DomHi:
		return ft.HiVal
	case x < 0 && x >= ft.TinyLo:
		return ft.TinyLoVal
	case x > 0 && x <= ft.TinyHi:
		return ft.TinyHiVal
	}
	if y, ok := refSpecial(st, x); ok {
		return y
	}
	r, k := reduce(x)
	if r == 0 {
		// Exact reduced input: the table entry alone is the correctly
		// rounded information (p = 2^0 = 1).
		return rangered.CompensateExpFamily(1, k)
	}
	return rangered.CompensateExpFamily(refEvalPoly(st, r), k)
}

// refLogFamily is the shared double path of ln, log2 and log10.
func refLogFamily(x float64, st *SchemeTable, compensate func(float64, rangered.Key) float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	if y, ok := refSpecial(st, x); ok {
		return y
	}
	f, k := rangered.ReduceLog(x)
	if f == 0 {
		// Exact reduced input: log(F) comes straight from the table
		// (p = log(1) = 0).
		return compensate(0, k)
	}
	return compensate(refEvalPoly(st, f), k)
}
