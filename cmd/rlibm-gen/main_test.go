package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// TestLibmTableEmits: a full bfloat16 generation converts into a table that
// carries every result unchanged (specials sorted by bit pattern, Knuth's
// adapted coefficients beside the plain ones) and that libm.Emit accepts.
func TestLibmTableEmits(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all six functions; skipped with -short")
	}
	var results []*core.Result
	for _, fn := range oracle.Funcs {
		rs, err := core.GenerateAll(context.Background(), core.Config{Fn: fn, Input: fp.Bfloat16, Seed: 9}, poly.PaperSchemes)
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		results = append(results, rs...)
	}
	tab := libmTable(results)
	if tab.Input != fp.Bfloat16 || tab.Target != results[0].Target {
		t.Errorf("table formats %v/%v, want %v/%v", tab.Input, tab.Target, fp.Bfloat16, results[0].Target)
	}
	if len(tab.Funcs) != len(oracle.Funcs) {
		t.Fatalf("%d functions in the table, want %d", len(tab.Funcs), len(oracle.Funcs))
	}
	for _, r := range results {
		ft := &tab.Funcs[slices.Index(oracle.Funcs, r.Fn)]
		if ft.Name != r.Fn.String() || ft.DomLo != r.Dom.Lo || ft.TinyHiVal != r.Dom.TinyHiVal {
			t.Errorf("%v: function entry %q does not carry the result's domain", r.Fn, ft.Name)
		}
		i := slices.IndexFunc(ft.Schemes, func(st libm.SchemeTable) bool { return st.Scheme == r.Scheme })
		if i < 0 {
			t.Fatalf("%v/%v: scheme missing from the table", r.Fn, r.Scheme)
		}
		st := &ft.Schemes[i]
		if len(st.Pieces) != len(r.Pieces) {
			t.Fatalf("%v/%v: %d pieces, want %d", r.Fn, r.Scheme, len(st.Pieces), len(r.Pieces))
		}
		for k, p := range r.Pieces {
			got := st.Pieces[k]
			if got.Lo != p.Lo || !slices.Equal(got.Coeffs, p.Coeffs) || !slices.Equal(got.Adapted, p.Eval.AdaptedCoeffs()) {
				t.Errorf("%v/%v piece %d differs from the result", r.Fn, r.Scheme, k)
			}
		}
		if !slices.IsSorted(st.SpecialBits) || len(st.SpecialBits) != len(r.Specials) {
			t.Errorf("%v/%v: specials %x not the result's, sorted", r.Fn, r.Scheme, st.SpecialBits)
		}
		for k, b := range st.SpecialBits {
			if y, ok := r.Specials[b]; !ok || math.Float64bits(y) != math.Float64bits(st.SpecialVals[k]) {
				t.Errorf("%v/%v: special %#x -> %g is not the result's", r.Fn, r.Scheme, b, st.SpecialVals[k])
			}
		}
	}
	dir := t.TempDir()
	if err := libm.Emit(dir, tab); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zz_generated_data.go", "zz_generated_funcs.go"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}
