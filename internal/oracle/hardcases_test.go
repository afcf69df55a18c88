package oracle

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"rlibm/internal/fp"
)

var (
	regenHardCases = flag.String("regen-hardcases", "", "TestRegenerateHardCases: write the golden hard-case vectors into this directory")
	regenStride    = flag.Uint64("regen-stride", 4093, "TestRegenerateHardCases: scan every stride-th binary32 bit pattern")
)

// hardCase is one golden vector. XBits and YBits are %#x-formatted float64
// bit patterns of the input and its 34-bit round-to-odd result: hex
// strings survive JSON, whose numbers are float64. TerminalPrec is the
// precision at which the big.Float Ziv loop settled the result, starting
// from a fresh ladder.
type hardCase struct {
	XBits        string `json:"x_bits"`
	YBits        string `json:"y_bits"`
	TerminalPrec uint   `json:"terminal_prec"`
}

type hardCaseFile struct {
	Fn     string     `json:"fn"`
	Stride uint64     `json:"stride"`
	Cases  []hardCase `json:"cases"`
}

// hardCaseFuncs are the functions with golden vectors.
var hardCaseFuncs = []Func{Exp, Log, Exp2, Log2}

// TestRegenerateHardCases rewrites the golden vectors when given an output
// directory, and is skipped otherwise:
//
//	go test ./internal/oracle -run TestRegenerateHardCases -regen-hardcases internal/oracle/testdata [-regen-stride 4093]
//
// It scans binary32 inputs on the forced big.Float path and keeps, per
// function, the 12 whose Ziv loop needs the most precision from a fresh
// ladder (ties broken by input bits, for a stable file).
func TestRegenerateHardCases(t *testing.T) {
	if *regenHardCases == "" {
		t.Skip("pass -regen-hardcases <dir> to rewrite the golden vectors")
	}
	const top = 12
	defer ResetLadders()
	for _, fn := range hardCaseFuncs {
		type scored struct {
			xbits uint64
			prec  uint
		}
		var worst []scored
		for b := uint64(0); b < 1<<32; b += *regenStride {
			x := float64(math.Float32frombits(uint32(b)))
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || (fn.IsLog() && x <= 0) {
				continue
			}
			ResetLadders()
			v := compute(fn, x, false)
			v.Round(fp.FP34, fp.RTO)
			if v.TerminalPrec() > 0 {
				worst = append(worst, scored{math.Float64bits(x), v.TerminalPrec()})
			}
		}
		sort.Slice(worst, func(i, j int) bool {
			if worst[i].prec != worst[j].prec {
				return worst[i].prec > worst[j].prec
			}
			return worst[i].xbits < worst[j].xbits
		})
		out := hardCaseFile{Fn: fn.String(), Stride: *regenStride}
		for _, s := range worst[:min(top, len(worst))] {
			ResetLadders()
			v := compute(fn, math.Float64frombits(s.xbits), false)
			out.Cases = append(out.Cases, hardCase{
				XBits:        fmt.Sprintf("%#016x", s.xbits),
				YBits:        fmt.Sprintf("%#016x", math.Float64bits(v.Round(fp.FP34, fp.RTO))),
				TerminalPrec: v.TerminalPrec(),
			})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(*regenHardCases, "hardcases_"+fn.String()+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d cases, hardest terminal precision %d", path, len(out.Cases), out.Cases[0].TerminalPrec)
	}
}

// TestHardCaseVectors replays the golden hard-to-round vectors — the
// binary32 inputs whose Ziv loop escalated furthest in a full stride scan —
// and pins the 34-bit round-to-odd result bits through the public
// Compute/Round path, and the terminal precision the big.Float path reaches
// from a fresh ladder. The result bits catch any change that alters what
// the oracle computes; the terminal precision catches changes to how hard
// the Ziv loop had to work (a silent Ziv regression would show up here
// long before it shows up in wall clock). The float64 rung must
// either decline each case or agree with it.
func TestHardCaseVectors(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "hardcases_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(hardCaseFuncs) {
		t.Fatalf("found %d hardcase files, want %d (regenerate with TestRegenerateHardCases)", len(paths), len(hardCaseFuncs))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var file hardCaseFile
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			fn, err := ParseFunc(file.Fn)
			if err != nil {
				t.Fatal(err)
			}
			if len(file.Cases) == 0 {
				t.Fatal("no cases")
			}
			for i, c := range file.Cases {
				xbits, err := strconv.ParseUint(c.XBits, 0, 64)
				if err != nil {
					t.Fatalf("case %d: bad x_bits %q: %v", i, c.XBits, err)
				}
				ybits, err := strconv.ParseUint(c.YBits, 0, 64)
				if err != nil {
					t.Fatalf("case %d: bad y_bits %q: %v", i, c.YBits, err)
				}
				x := math.Float64frombits(xbits)
				// The precision ladder is process-global and result-invariant,
				// but the terminal precision it reaches depends on where it
				// starts; reset it so the pinned value is reproducible.
				ResetLadders()
				if got := math.Float64bits(Compute(fn, x).Round(fp.FP34, fp.RTO)); got != ybits {
					t.Errorf("case %d: %v(%g) = %#016x, golden %#016x", i, fn, x, got, ybits)
				}
				ResetLadders()
				v := compute(fn, x, false)
				if got := math.Float64bits(v.Round(fp.FP34, fp.RTO)); got != ybits {
					t.Errorf("case %d: %v(%g) on the big.Float path = %#016x, golden %#016x", i, fn, x, got, ybits)
				}
				if got := v.TerminalPrec(); got != c.TerminalPrec {
					t.Errorf("case %d: %v(%g) terminal precision %d, golden %d", i, fn, x, got, c.TerminalPrec)
				}
				if e, ok := rung(fn, x); ok {
					if r, ok := e.round(fp.FP34, fp.RTO); ok && math.Float64bits(r) != ybits {
						t.Errorf("case %d: %v(%g) rung accepts %#016x, golden %#016x", i, fn, x, math.Float64bits(r), ybits)
					}
				}
			}
			ResetLadders()
		})
	}
}

// TestHardCaseLadderInvariance re-computes the hardest vector of each file
// on the big.Float path with a deliberately warmed ladder and checks the
// RESULT stays identical even though the terminal precision may differ —
// the ladder is a pure speed knob, never a correctness one.
func TestHardCaseLadderInvariance(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "hardcases_*.json"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file hardCaseFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		fn, err := ParseFunc(file.Fn)
		if err != nil {
			t.Fatal(err)
		}
		c := file.Cases[0]
		xbits, _ := strconv.ParseUint(c.XBits, 0, 64)
		ybits, _ := strconv.ParseUint(c.YBits, 0, 64)
		x := math.Float64frombits(xbits)

		ResetLadders()
		compute(fn, x, false).Round(fp.FP34, fp.RTO) // warm the ladder to this case's terminal precision
		warm := compute(fn, x, false)
		if got := math.Float64bits(warm.Round(fp.FP34, fp.RTO)); got != ybits {
			t.Errorf("%v(%g) with warm ladder = %#016x, golden %#016x", fn, x, got, ybits)
		}
		ResetLadders()
	}
}
