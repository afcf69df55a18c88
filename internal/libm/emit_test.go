package libm

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/poly"
)

// shippedTables lists the six compiled-in tables in emission order.
var shippedTables = []genFunc{
	{"exp", &expData}, {"exp2", &exp2Data}, {"exp10", &exp10Data},
	{"log", &logData}, {"log2", &log2Data}, {"log10", &log10Data},
}

// shippedData returns the compiled-in table of the named function.
func shippedData(t *testing.T, name string) *funcData {
	t.Helper()
	for _, g := range shippedTables {
		if g.name == name {
			return g.data
		}
	}
	t.Fatalf("unknown function %q", name)
	return nil
}

// shippedTable rebuilds the Table the committed files were emitted from.
func shippedTable() Table {
	tab := Table{Input: fp.Float32, Target: fp.FP34}
	for _, g := range shippedTables {
		fd := g.data
		ft := FuncTable{
			Name:  g.name,
			DomLo: fd.domLo, DomHi: fd.domHi, LoVal: fd.loVal, HiVal: fd.hiVal,
			TinyLo: fd.tinyLo, TinyHi: fd.tinyHi, TinyLoVal: fd.tinyLoVal, TinyHiVal: fd.tinyHiVal,
		}
		for s, impl := range fd.impls {
			st := SchemeTable{Scheme: polySchemeOf(Scheme(s)), SpecialBits: impl.specialBits, SpecialVals: impl.specialVals}
			for _, p := range impl.pieces {
				pt := Piece{Lo: p.lo, Coeffs: p.coeffs}
				switch {
				case p.a4 != nil:
					pt.Adapted = p.a4[:]
				case p.a5 != nil:
					pt.Adapted = p.a5[:]
				case p.a6 != nil:
					pt.Adapted = p.a6[:]
				}
				st.Pieces = append(st.Pieces, pt)
			}
			ft.Schemes = append(ft.Schemes, st)
		}
		tab.Funcs = append(tab.Funcs, ft)
	}
	return tab
}

// shippedDataSource renders the data file from the compiled-in tables.
func shippedDataSource() string {
	var b strings.Builder
	writeData(&b, fp.Float32, fp.FP34, shippedTables)
	return b.String()
}

// TestEmitGeneratedFuncsStable: Emit, given the committed tables, writes
// both committed files byte for byte, so the generated kernels are stable
// against their own emitter.
func TestEmitGeneratedFuncsStable(t *testing.T) {
	dir := t.TempDir()
	if err := Emit(dir, shippedTable()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zz_generated_data.go", "zz_generated_funcs.go"} {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: emitted file differs from the committed one", name)
		}
	}
}

// TestEmitLibmData: the data writer reproduces the committed data file from
// the compiled-in tables, in libm's Go form with exact hex literals only.
func TestEmitLibmData(t *testing.T) {
	src := shippedDataSource()
	want, err := os.ReadFile("zz_generated_data.go")
	if err != nil {
		t.Fatal(err)
	}
	if src != string(want) {
		t.Error("writeData does not reproduce zz_generated_data.go")
	}
	for _, want := range []string{
		"// Code generated by rlibm-gen. DO NOT EDIT.",
		"(input fp32_e8, target fp34_e8)",
		"package libm",
		"var expData = funcData{",
		"var exp2Data = funcData{",
		"var exp10Data = funcData{",
		"var logData = funcData{",
		"var log2Data = funcData{",
		"var log10Data = funcData{",
		"SchemeHorner", "SchemeKnuth", "SchemeEstrin", "SchemeEstrinFMA",
		"pieces: []pieceData{",
		"specialBits: []uint64{",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q", want)
		}
	}
	// The Knuth slots must carry adapted coefficients for degree >= 4
	// pieces.
	if !strings.Contains(src, "a4: &[5]float64{") && !strings.Contains(src, "a5: &[6]float64{") &&
		!strings.Contains(src, "a6: &[7]float64{") {
		t.Error("no adapted coefficients emitted for the Knuth variants")
	}
	// Exact hex float literals only — no lossy decimal output.
	if strings.Contains(src, "e+") || strings.Contains(src, "e-") {
		t.Error("emitted source appears to contain decimal floating-point literals")
	}
}

// TestEmitLibmDataMissingScheme: Emit refuses a table that lacks a function,
// a scheme, or a piece, and a malformed special table, and writes nothing.
func TestEmitLibmDataMissingScheme(t *testing.T) {
	cases := map[string]func(*Table){
		"missing function": func(tab *Table) { tab.Funcs = tab.Funcs[1:] },
		"renamed function": func(tab *Table) { tab.Funcs[2].Name = "sinpi" },
		"missing scheme":   func(tab *Table) { tab.Funcs[0].Schemes = tab.Funcs[0].Schemes[:3] },
		"unknown scheme":   func(tab *Table) { tab.Funcs[0].Schemes[1].Scheme = poly.HornerFMA },
		"no pieces":        func(tab *Table) { tab.Funcs[3].Schemes[0].Pieces = nil },
		"specials unsorted": func(tab *Table) {
			st := &tab.Funcs[2].Schemes[0] // exp10 carries exact powers of ten
			st.SpecialBits = append([]uint64(nil), st.SpecialBits...)
			st.SpecialBits[0], st.SpecialBits[1] = st.SpecialBits[1], st.SpecialBits[0]
		},
	}
	for name, mutate := range cases {
		tab := shippedTable()
		mutate(&tab)
		dir := t.TempDir()
		if err := Emit(dir, tab); err == nil {
			t.Errorf("%s: Emit accepted the table", name)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("%s: Emit wrote %d files for a rejected table", name, len(ents))
		}
	}
}

// TestEmitLibmDataReparses: the emitted data source is syntactically valid
// (go/parser accepts it) and structurally complete — one funcData var per
// function — and every float literal in it is an exact hex literal.
func TestEmitLibmDataReparses(t *testing.T) {
	src := shippedDataSource()

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "zz_generated_data.go", src, parser.AllErrors)
	if err != nil {
		t.Fatalf("emitted source does not parse: %v", err)
	}
	if file.Name.Name != "libm" {
		t.Errorf("emitted package %q, want libm", file.Name.Name)
	}

	// One top-level var per function, named <fn>Data.
	vars := map[string]bool{}
	floatLits := 0
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			for _, name := range d.Names {
				vars[name.Name] = true
			}
		case *ast.BasicLit:
			if d.Kind == token.FLOAT {
				floatLits++
				if !strings.HasPrefix(strings.TrimPrefix(d.Value, "-"), "0x") {
					t.Errorf("non-hex float literal %q in emitted source", d.Value)
				}
			}
		}
		return true
	})
	for _, g := range shippedTables {
		if !vars[g.name+"Data"] {
			t.Errorf("emitted source lacks var %sData", g.name)
		}
	}
	// The literal count must at least cover every coefficient of every
	// implementation.
	wantCoeffs := 0
	for _, g := range shippedTables {
		for _, impl := range g.data.impls {
			for _, p := range impl.pieces {
				wantCoeffs += len(p.coeffs)
			}
		}
	}
	if floatLits < wantCoeffs {
		t.Errorf("%d float literals in emitted source, want >= %d coefficients", floatLits, wantCoeffs)
	}
}

func TestHexF(t *testing.T) {
	cases := map[float64]string{
		1:           "0x1p+00",
		0.5:         "0x1p-01",
		math.Inf(1): "math.Inf(1)",
	}
	for v, want := range cases {
		if got := hexF(v); got != want {
			t.Errorf("hexF(%g) = %q, want %q", v, got, want)
		}
	}
	if got := hexF(math.NaN()); got != "math.NaN()" {
		t.Errorf("hexF(NaN) = %q", got)
	}
	if got := hexF(math.Inf(-1)); got != "math.Inf(-1)" {
		t.Errorf("hexF(-Inf) = %q", got)
	}
}

// TestHexFRoundTrip: every emitted coefficient literal must parse back to
// the identical bit pattern — the emitted data file IS the library, so a
// lossy literal would silently change results.
func TestHexFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, math.Pi}
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue // rendered as math.NaN()/math.Inf(), not literals
		}
		s := hexF(v)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("hexF(%g) = %q does not parse: %v", v, s, err)
		}
		if math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("hexF(%g) = %q parses to %g (bits %x vs %x)",
				v, s, back, math.Float64bits(back), math.Float64bits(v))
		}
	}
}
