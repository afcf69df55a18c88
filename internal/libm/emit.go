package libm

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"rlibm/internal/fp"
	"rlibm/internal/poly"
)

// Table is the generator's output in the shape this package embeds: per
// function the domain cuts and plateaus, per scheme the polynomial pieces
// and the special inputs. Emit turns a Table into this package's two
// generated files; no other package spells their Go form.
type Table struct {
	Input, Target fp.Format // recorded in the data file's header
	Funcs         []FuncTable
}

// FuncTable is one function of a Table.
type FuncTable struct {
	Name string // exp, exp2, exp10, log, log2 or log10
	// The polynomial path is (DomLo, DomHi); beyond the cuts the results
	// are the plateaus LoVal and HiVal. Inputs in [TinyLo, 0) and (0,
	// TinyHi] return TinyLoVal and TinyHiVal (exp family only; zero for
	// the logarithms).
	DomLo, DomHi, LoVal, HiVal           float64
	TinyLo, TinyHi, TinyLoVal, TinyHiVal float64
	Schemes                              []SchemeTable // one per paper scheme, any order
}

// SchemeTable is one scheme's implementation of a function.
type SchemeTable struct {
	Scheme      poly.Scheme
	Pieces      []Piece
	SpecialBits []uint64  // float64 bit patterns of the special inputs, ascending
	SpecialVals []float64 // their results, parallel to SpecialBits
}

// Piece is one polynomial piece, selected for reduced inputs r >= Lo. The
// first piece serves every r below the second piece's Lo, so its own Lo is
// not used.
type Piece struct {
	Lo      float64
	Coeffs  []float64
	Adapted []float64 // Knuth's adapted coefficients (5, 6 or 7), or nil
}

// genFunc is one function's table in the form the kernels run, under the
// name the emitters key it by.
type genFunc struct {
	name string
	data *funcData
}

// Emit writes zz_generated_data.go (the tables) and zz_generated_funcs.go
// (the straight-line kernels emitted from them) into dir. Both files are
// rendered before either is written, so a table the emitters reject leaves
// dir untouched.
func Emit(dir string, t Table) error {
	fns, err := t.genFuncs()
	if err != nil {
		return err
	}
	var data bytes.Buffer
	writeData(&data, t.Input, t.Target, fns)
	funcs, err := emitFuncsFile(fns)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "zz_generated_data.go"), data.Bytes(), 0o666); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "zz_generated_funcs.go"), funcs, 0o666)
}

// genFuncs checks t and converts it to the embedded form, in the order of
// Funcs.
func (t Table) genFuncs() ([]genFunc, error) {
	if len(t.Funcs) != len(Funcs) {
		return nil, fmt.Errorf("table has %d functions, want the %d of libm", len(t.Funcs), len(Funcs))
	}
	out := make([]genFunc, 0, len(Funcs))
	for _, f := range Funcs {
		var ft *FuncTable
		for i := range t.Funcs {
			if t.Funcs[i].Name == f.Name {
				ft = &t.Funcs[i]
			}
		}
		if ft == nil {
			return nil, fmt.Errorf("no table for %s", f.Name)
		}
		fd := &funcData{
			domLo: ft.DomLo, domHi: ft.DomHi, loVal: ft.LoVal, hiVal: ft.HiVal,
			tinyLo: ft.TinyLo, tinyHi: ft.TinyHi, tinyLoVal: ft.TinyLoVal, tinyHiVal: ft.TinyHiVal,
		}
		var seen [numSchemes]bool
		for _, st := range ft.Schemes {
			s, ok := schemeSlot(st.Scheme)
			if !ok {
				return nil, fmt.Errorf("%s: scheme %v has no libm slot", f.Name, st.Scheme)
			}
			impl, err := st.implData(s)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", f.Name, s, err)
			}
			fd.impls[s], seen[s] = impl, true
		}
		for s, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("%s: missing scheme %v", f.Name, Scheme(s))
			}
		}
		out = append(out, genFunc{f.Name, fd})
	}
	return out, nil
}

func (st *SchemeTable) implData(s Scheme) (implData, error) {
	d := implData{scheme: s, specialBits: st.SpecialBits, specialVals: st.SpecialVals}
	if len(st.Pieces) == 0 {
		return d, fmt.Errorf("no pieces")
	}
	for i, p := range st.Pieces {
		pd := pieceData{lo: p.Lo, coeffs: p.Coeffs}
		if i == 0 {
			pd.lo = math.Inf(-1)
		}
		switch len(p.Adapted) {
		case 0:
		case 5:
			pd.a4 = (*[5]float64)(p.Adapted)
		case 6:
			pd.a5 = (*[6]float64)(p.Adapted)
		case 7:
			pd.a6 = (*[7]float64)(p.Adapted)
		default:
			return d, fmt.Errorf("piece %d: %d adapted coefficients", i, len(p.Adapted))
		}
		d.pieces = append(d.pieces, pd)
	}
	if len(st.SpecialBits) != len(st.SpecialVals) {
		return d, fmt.Errorf("%d special inputs but %d values", len(st.SpecialBits), len(st.SpecialVals))
	}
	for i := 1; i < len(st.SpecialBits); i++ {
		if st.SpecialBits[i] <= st.SpecialBits[i-1] {
			return d, fmt.Errorf("special inputs not ascending")
		}
	}
	return d, nil
}

// schemeSlot maps a poly.Scheme to the libm variant index (the paper's four
// configurations).
func schemeSlot(s poly.Scheme) (Scheme, bool) {
	switch s {
	case poly.Horner:
		return SchemeHorner, true
	case poly.Knuth:
		return SchemeKnuth, true
	case poly.Estrin:
		return SchemeEstrin, true
	case poly.EstrinFMA:
		return SchemeEstrinFMA, true
	}
	return 0, false
}

// schemeIdents spells each Scheme constant in the data file.
var schemeIdents = [numSchemes]string{"SchemeHorner", "SchemeKnuth", "SchemeEstrin", "SchemeEstrinFMA"}

// hexF formats a float64 as an exact Go literal.
func hexF(v float64) string {
	s := strconv.FormatFloat(v, 'x', -1, 64)
	switch s {
	case "+Inf":
		return "math.Inf(1)"
	case "-Inf":
		return "math.Inf(-1)"
	case "NaN":
		return "math.NaN()"
	}
	return s
}

// writeData writes zz_generated_data.go: one funcData variable per
// function, every float an exact hex literal.
func writeData(w io.Writer, input, target fp.Format, fns []genFunc) {
	fmt.Fprintf(w, "// Code generated by rlibm-gen. DO NOT EDIT.\n")
	fmt.Fprintf(w, "//\n// Polynomial coefficients, adapted coefficients, special-case tables and\n")
	fmt.Fprintf(w, "// domain cuts produced by the internal/core pipeline (input %v, target %v).\n", input, target)
	fmt.Fprintf(w, "\npackage libm\n\nimport \"math\"\n\nvar _ = math.Inf\n")

	list := func(n int, item func(int) string) string {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(item(i))
		}
		return b.String()
	}
	floats := func(vs []float64) string {
		return list(len(vs), func(i int) string { return hexF(vs[i]) })
	}
	for _, g := range fns {
		fd := g.data
		fmt.Fprintf(w, "\nvar %sData = funcData{\n", g.name)
		fmt.Fprintf(w, "\tdomLo: %s, domHi: %s,\n", hexF(fd.domLo), hexF(fd.domHi))
		fmt.Fprintf(w, "\tloVal: %s, hiVal: %s,\n", hexF(fd.loVal), hexF(fd.hiVal))
		fmt.Fprintf(w, "\ttinyLo: %s, tinyHi: %s,\n", hexF(fd.tinyLo), hexF(fd.tinyHi))
		fmt.Fprintf(w, "\ttinyLoVal: %s, tinyHiVal: %s,\n", hexF(fd.tinyLoVal), hexF(fd.tinyHiVal))
		fmt.Fprintf(w, "\timpls: [numSchemes]implData{\n")
		for s := range fd.impls {
			impl := &fd.impls[s]
			fmt.Fprintf(w, "\t\t{\n\t\t\tscheme: %s,\n\t\t\tpieces: []pieceData{\n", schemeIdents[s])
			for _, p := range impl.pieces {
				fmt.Fprintf(w, "\t\t\t\t{lo: %s, coeffs: []float64{%s}", hexF(p.lo), floats(p.coeffs))
				switch {
				case p.a4 != nil:
					fmt.Fprintf(w, ", a4: &[5]float64{%s}", floats(p.a4[:]))
				case p.a5 != nil:
					fmt.Fprintf(w, ", a5: &[6]float64{%s}", floats(p.a5[:]))
				case p.a6 != nil:
					fmt.Fprintf(w, ", a6: &[7]float64{%s}", floats(p.a6[:]))
				}
				fmt.Fprint(w, "},\n")
			}
			fmt.Fprint(w, "\t\t\t},\n")
			fmt.Fprintf(w, "\t\t\tspecialBits: []uint64{%s},\n",
				list(len(impl.specialBits), func(i int) string { return fmt.Sprintf("%#x", impl.specialBits[i]) }))
			fmt.Fprintf(w, "\t\t\tspecialVals: []float64{%s},\n\t\t},\n", floats(impl.specialVals))
		}
		fmt.Fprint(w, "\t},\n}\n")
	}
}
