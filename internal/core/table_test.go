package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// tinyResults holds all four schemes for all six functions, generated at a
// small width once per test binary.
var tinyResults []*Result

func allTinyResults(t *testing.T) []*Result {
	t.Helper()
	if testing.Short() {
		t.Skip("generation-backed test; skipped with -short")
	}
	if tinyResults != nil {
		return tinyResults
	}
	for _, fn := range oracle.Funcs {
		rs, err := GenerateAll(context.Background(), Config{Fn: fn, Input: fp.Bfloat16, Seed: 9}, poly.PaperSchemes)
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		tinyResults = append(tinyResults, rs...)
	}
	return tinyResults
}

func TestPrintTable1(t *testing.T) {
	results := allTinyResults(t)
	var sb strings.Builder
	PrintTable1(&sb, results)
	out := sb.String()
	for _, fn := range oracle.Funcs {
		if !strings.Contains(out, fn.String()) {
			t.Errorf("Table 1 missing row for %v", fn)
		}
	}
	if !strings.Contains(out, "RLIBM-Estrin+FMA") {
		t.Error("Table 1 missing configuration header")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 9 {
		t.Errorf("Table 1 too short:\n%s", out)
	}
}

// TestPrintTable1MatchesResults: every Table-1 cell must agree with the
// result it summarizes — piece count, per-piece degrees, special count — in
// the paper's column order.
func TestPrintTable1MatchesResults(t *testing.T) {
	results := allTinyResults(t)
	byKey := map[string]*Result{}
	for _, r := range results {
		byKey[r.Fn.String()+"/"+r.Scheme.String()] = r
	}

	var sb strings.Builder
	PrintTable1(&sb, results)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")

	rows := map[string][]string{}
	for _, line := range lines[3:] { // skip the two header lines + rule
		cells := strings.Split(line, "|")
		if len(cells) != 5 {
			t.Fatalf("table row has %d cells: %q", len(cells), line)
		}
		rows[strings.TrimSpace(cells[0])] = cells[1:]
	}
	for key, r := range byKey {
		fn := r.Fn.String()
		cells, ok := rows[fn]
		if !ok {
			t.Fatalf("no table row for %s", fn)
		}
		slot := slices.Index(poly.PaperSchemes, r.Scheme)
		if slot < 0 {
			t.Fatalf("no column for %v", r.Scheme)
		}
		degs := make([]string, len(r.Pieces))
		for i, p := range r.Pieces {
			degs[i] = fmt.Sprintf("%d", p.Coeffs.Trim().Degree())
		}
		want := fmt.Sprintf("%-2d %-8s %d", len(r.Pieces), strings.Join(degs, ","), len(r.Specials))
		if got := strings.TrimSpace(cells[slot]); got != strings.TrimSpace(want) {
			t.Errorf("%s: table cell %q, want %q", key, got, want)
		}
	}
	// The scheme column order must match poly.PaperSchemes.
	if poly.PaperSchemes[0] != poly.Horner {
		t.Fatal("PaperSchemes order changed; table columns no longer line up")
	}
}
