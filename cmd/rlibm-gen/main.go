// Command rlibm-gen runs the polynomial generation pipeline (the paper's
// Figure 1 / Algorithm 2) and emits either a human-readable report, a
// Table-1-style summary, or internal/libm's two generated files: the
// straight-line kernels and, for the tests only, the table they were
// emitted from.
//
// Usage:
//
//	rlibm-gen [-func all|exp|exp2,log2|...] [-scheme all|horner|knuth|estrin|estrin-fma]
//	          [-bits 32] [-expbits 8] [-stride 4096] [-seed 1] [-j 8]
//	          [-emit dir] [-table1]
//	          [-v|-q] [-trace trace.jsonl] [-report report.json]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Examples:
//
//	rlibm-gen -func log2 -scheme estrin-fma -bits 20 -stride 1
//	rlibm-gen -func all -scheme all -bits 32 -stride 4093 -emit internal/libm
//	rlibm-gen -func exp2,log2 -bits 14 -report run.json -trace trace.jsonl
//	rlibm-gen -table1 -bits 24 -stride 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"rlibm/internal/cliflags"
	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

func main() {
	var (
		fnFlag     = flag.String("func", "all", "comma-separated functions to generate (all = the six paper functions; names: exp, exp2, exp10, log, log2, log10, sinpi, cospi)")
		schemeFlag = flag.String("scheme", "all", "evaluation scheme (all or one of horner, knuth, estrin, estrin-fma)")
		bits       = flag.Int("bits", 32, "input format width in bits")
		expBits    = flag.Int("expbits", 8, "input format exponent width")
		stride     = flag.Uint64("stride", 4093, "enumerate every stride-th input bit pattern (a prime avoids aliasing with mantissa bit boundaries)")
		seed       = flag.Int64("seed", 1, "random seed for constraint sampling")
		degree     = flag.Int("degree", 0, "starting polynomial degree (0 = per-function default)")
		pieces     = flag.Int("pieces", 0, "piecewise pieces (0 = per-function default)")
		emit       = flag.String("emit", "", "write internal/libm's generated files (zz_generated_funcs.go, the kernels; zz_generated_table_test.go, their table for the tests) into this directory")
		table1     = flag.Bool("table1", false, "print a Table-1-style summary")
		timeout    = flag.Duration("timeout", 0, "abort generation after this long (0 = no limit); cancellation reaches down into the simplex pivot loop")
		opts       = cliflags.Register(flag.CommandLine)
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	input := fp.Format{Bits: *bits, ExpBits: *expBits}
	if err := input.Validate(); err != nil {
		fatal(err)
	}

	fns := oracle.Funcs
	if *fnFlag != "all" {
		fns = nil
		for _, name := range strings.Split(*fnFlag, ",") {
			fn, err := oracle.ParseFunc(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			fns = append(fns, fn)
		}
	}
	schemes := poly.PaperSchemes
	if *schemeFlag != "all" {
		s, err := poly.ParseScheme(*schemeFlag)
		if err != nil {
			fatal(err)
		}
		schemes = []poly.Scheme{s}
	}

	ro, err := opts.Obs.Start()
	if err != nil {
		fatal(err)
	}
	defer ro.Close()

	reg := obs.NewRegistry()
	var report *core.RunReport
	if opts.Obs.ReportPath != "" {
		report = core.NewRunReport("rlibm-gen")
		flag.Visit(func(f *flag.Flag) { report.Config[f.Name] = f.Value.String() })
		report.Config["func"] = *fnFlag
		report.Config["bits"] = strconv.Itoa(*bits)
	}

	failed := false
	var results []*core.Result
	var oracleValues int64
	for _, fn := range fns {
		cfg := core.Config{
			Fn:      fn,
			Input:   input,
			Stride:  *stride,
			Seed:    *seed,
			Degree:  *degree,
			Pieces:  *pieces,
			Workers: opts.Workers,
			Logger:  ro.Log,
			Metrics: reg,
			Trace:   ro.Tracer,
		}
		start := time.Now()
		rs, err := core.GenerateAll(ctx, cfg, schemes)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				// The -timeout budget covers the whole run; once it fires,
				// every remaining function would fail identically.
				if report != nil {
					for _, scheme := range schemes {
						report.AddFailure(fn.String(), scheme.String(), err)
					}
					report.Cache = oracle.NewCacheReport(0, oracleValues)
					report.AttachMetrics(reg, obs.Default())
					if werr := report.WriteFile(opts.Obs.ReportPath); werr != nil {
						fatal(werr)
					}
				}
				fatal(fmt.Errorf("%v: %w", fn, err))
			}
			// With a report requested the run keeps going: the report marks
			// the failed schemes solved:false and the exit status is nonzero,
			// so CI sees both the failure and everything else that happened.
			if report == nil {
				fatal(fmt.Errorf("%v: %w", fn, err))
			}
			ro.Log.Infof("%v: FAILED: %v", fn, err)
			for _, scheme := range schemes {
				report.AddFailure(fn.String(), scheme.String(), err)
			}
			failed = true
			continue
		}
		ro.Log.Infof("%v: all schemes done in %v", fn, time.Since(start).Round(time.Millisecond))
		if len(rs) > 0 {
			// Every scheme of this function's run carries the run's total.
			oracleValues += rs[0].Stats.OracleMisses
		}
		for _, res := range rs {
			ro.Log.Infof("  generated %s (%d constraints, %d LP solves, %d exact fallbacks [%s], %d exact + %d float pivots, %d iterations, collect %v, solve %v, %d oracle values)",
				res.Describe(), res.Stats.Constraints, res.Stats.LPSolves, res.Stats.LPExactFallbacks,
				formatReasons(res.Stats.LPExactReasons), res.Stats.LPPivots, res.Stats.LPFloatPivots, res.Stats.Iterations,
				res.Stats.CollectTime.Round(time.Millisecond), res.Stats.SolveTime.Round(time.Millisecond),
				res.Stats.OracleMisses)
			results = append(results, res)
			if report != nil {
				report.AddResult(res)
			}
			if *emit == "" && !*table1 {
				printResult(res)
			}
		}
	}

	if *table1 {
		core.PrintTable1(os.Stdout, results)
	}
	if *emit != "" {
		if err := libm.Emit(*emit, libmTable(results)); err != nil {
			fatal(fmt.Errorf("-emit %s: %w", *emit, err))
		}
		ro.Log.Infof("wrote zz_generated_funcs.go and zz_generated_table_test.go in %s", *emit)
	}
	if report != nil {
		report.Cache = oracle.NewCacheReport(0, oracleValues)
		report.AttachMetrics(reg, obs.Default())
		if err := report.WriteFile(opts.Obs.ReportPath); err != nil {
			fatal(err)
		}
		ro.Log.Infof("wrote %s", opts.Obs.ReportPath)
	}
	if err := ro.Close(); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// libmTable gathers the results into the table internal/libm emits its
// kernels from, one entry per function in the order the results arrive.
func libmTable(results []*core.Result) libm.Table {
	var t libm.Table
	index := map[oracle.Func]int{}
	for _, r := range results {
		t.Input, t.Target = r.Input, r.Target
		i, ok := index[r.Fn]
		if !ok {
			// The cuts depend only on function and target, so every scheme
			// of a function carries the same ones.
			d := r.Dom
			i, index[r.Fn] = len(t.Funcs), len(t.Funcs)
			t.Funcs = append(t.Funcs, libm.FuncTable{
				Name:  r.Fn.String(),
				DomLo: d.Lo, DomHi: d.Hi, LoVal: d.LoVal, HiVal: d.HiVal,
				TinyLo: d.TinyLo, TinyHi: d.TinyHi, TinyLoVal: d.TinyLoVal, TinyHiVal: d.TinyHiVal,
			})
		}
		st := libm.SchemeTable{Scheme: r.Scheme}
		for _, p := range r.Pieces {
			st.Pieces = append(st.Pieces, libm.Piece{Lo: p.Lo, Coeffs: p.Coeffs, Adapted: p.Eval.AdaptedCoeffs()})
		}
		for b := range r.Specials {
			st.SpecialBits = append(st.SpecialBits, b)
		}
		slices.Sort(st.SpecialBits)
		for _, b := range st.SpecialBits {
			st.SpecialVals = append(st.SpecialVals, r.Specials[b])
		}
		t.Funcs[i].Schemes = append(t.Funcs[i].Schemes, st)
	}
	return t
}

func printResult(res *core.Result) {
	fmt.Printf("%s\n", res.Describe())
	for i, p := range res.Pieces {
		fmt.Printf("  piece %d over [%g, %g]:\n", i, p.Lo, p.Hi)
		for j, c := range p.Coeffs {
			fmt.Printf("    c%d = %.17g\n", j, c)
		}
		if a := p.Eval.AdaptedCoeffs(); a != nil {
			for j, c := range a {
				fmt.Printf("    alpha%d = %.17g\n", j, c)
			}
		}
	}
	bits := make([]uint64, 0, len(res.Specials))
	for b := range res.Specials {
		bits = append(bits, b)
	}
	slices.Sort(bits)
	for _, b := range bits {
		fmt.Printf("  special: x=%g -> %.17g\n", math.Float64frombits(b), res.Specials[b])
	}
}

// formatReasons renders an lp_exact_reasons map as "reason n, ..." in
// reason order ("none" when empty).
func formatReasons(reasons map[string]int) string {
	if len(reasons) == 0 {
		return "none"
	}
	names := make([]string, 0, len(reasons))
	for r := range reasons {
		names = append(names, r)
	}
	slices.Sort(names)
	parts := make([]string, len(names))
	for i, r := range names {
		parts[i] = fmt.Sprintf("%s %d", r, reasons[r])
	}
	return strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlibm-gen:", err)
	os.Exit(1)
}
