// Command rlibm-check is the correctness-testing framework of the artifact:
// it compares the generated library's results against the arbitrary-
// precision oracle for every requested function and variant, across all
// output formats from 10 to 32 bits (8-bit exponent) and all five standard
// rounding modes, and prints the number of wrong results (expected: 0).
//
// The paper's artifact streams 12 GB pre-generated MPFR oracle files over
// all 2^32 inputs; here the oracle is computed on the fly, so the one-shot
// sweep is stride-sampled by default (-stride). The RLIBM-32 claim — every
// one of the 2^32 float32 inputs — is proved by campaign mode (-campaign,
// with -smoke or -full): a checkpointed work queue that survives kills,
// resumes with bit-identical tallies, and shards across machines as
// disjoint -func slices, each with its own -campaign directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rlibm/internal/campaign"
	"rlibm/internal/cliflags"
	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
)

func main() {
	var (
		fnFlag     = flag.String("func", "all", "function to check (all or exp, exp2, exp10, log, log2, log10)")
		schemeFlag = flag.String("scheme", "all", "variant to check (all or rlibm, rlibm-knuth, rlibm-estrin, rlibm-estrin-fma)")
		stride     = flag.Uint64("stride", 65536, "check every stride-th float32 bit pattern")
		random     = flag.Int("random", 200000, "additional uniformly random float32 inputs")
		widths     = flag.String("widths", "10,16,19,24,27,32", "comma-separated output widths to verify")
		seed       = flag.Int64("seed", time.Now().UnixNano(), "seed for the random inputs (-smoke pins 1 unless set explicitly)")
		useFuncs   = flag.Bool("funcs", false, "check the straight-line function backend instead of the data-driven one")
		maxWrong   = flag.Int("max-wrong", 0, "exit zero if at most this many wrong results are found (the shipped stride-trained polynomials have a documented ~3e-5 single-ulp residual at 32 bits; see DESIGN.md)")

		campaignDir = flag.String("campaign", "", "run as a resumable campaign, checkpointing to this state directory")
		smoke       = flag.Bool("smoke", false, "campaign mode: the CI-sized deterministic smoke slice")
		full        = flag.Bool("full", false, "campaign mode: the full RLIBM-32 sweep — every float32 bit pattern (hours)")
		restart     = flag.Bool("restart", false, "discard the campaign checkpoint and start over")
		unitSize    = flag.Uint64("unit", 0, "campaign unit size in inputs — the resume grain (0 = mode default)")
		progress    = flag.Duration("progress", 15*time.Second, "campaign progress/ETA logging interval (0 = none)")

		opts = cliflags.Register(flag.CommandLine)
	)
	flag.Parse()

	var widthList []int
	for _, wstr := range strings.Split(*widths, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(wstr))
		if err != nil || w < 10 || w > 32 {
			fmt.Fprintf(os.Stderr, "rlibm-check: bad width %q\n", wstr)
			os.Exit(1)
		}
		widthList = append(widthList, w)
	}

	campaignMode := *campaignDir != "" || *smoke || *full
	if *smoke && *full {
		fatal(fmt.Errorf("-smoke and -full are mutually exclusive"))
	}
	if (*restart || *unitSize != 0) && !campaignMode {
		fatal(fmt.Errorf("-restart/-unit need campaign mode (-campaign, -smoke or -full)"))
	}
	// The smoke slice must be byte-for-byte reproducible across CI runs, so
	// it pins the seed unless the operator chose one.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if *smoke && !seedSet {
		*seed = 1
	}

	ro, err := opts.Obs.Start()
	if err != nil {
		fatal(err)
	}
	defer ro.Close()
	// Always log the seed: a failing random input is worthless if the run's
	// seed died with the process.
	ro.Log.Infof("random seed: %d", *seed)

	code := 0
	if campaignMode {
		code = runCampaign(campaignArgs{
			dir: *campaignDir, smoke: *smoke, full: *full, restart: *restart,
			fn: *fnFlag, scheme: *schemeFlag, widths: widthList,
			stride: *stride, random: *random, seed: *seed, unitSize: *unitSize,
			useFuncs: *useFuncs, maxWrong: *maxWrong, progress: *progress,
		}, opts, ro)
	} else {
		code = runOneShot(*fnFlag, *schemeFlag, *stride, *random, widthList,
			*seed, *useFuncs, *maxWrong, opts, ro)
	}

	if err := ro.Close(); err != nil {
		fatal(err)
	}
	os.Exit(code)
}

type campaignArgs struct {
	dir         string
	smoke, full bool
	restart     bool
	fn, scheme  string
	widths      []int
	stride      uint64
	random      int
	seed        int64
	unitSize    uint64
	useFuncs    bool
	maxWrong    int
	progress    time.Duration
}

// runCampaign builds the plan for the selected mode and drives the engine
// under signal cancellation, returning the process exit code: 0 on a clean
// complete run, 1 on too many wrong results, 3 on interruption (the
// checkpoint holds the committed prefix; rerun with the same flags).
func runCampaign(a campaignArgs, opts *cliflags.Options, ro *obs.RunObs) int {
	funcs := campaign.AllFuncNames()
	if a.fn != "all" {
		funcs = []string{a.fn}
	}
	schemes := campaign.AllSchemeNames()
	if a.scheme != "all" {
		schemes = []string{a.scheme}
	}

	var cfg campaign.Config
	mode := "custom"
	switch {
	case a.smoke:
		mode = "smoke"
		cfg = campaign.SmokeConfig(funcs, schemes, a.widths, a.seed)
	case a.full:
		mode = "full"
		cfg = campaign.FullConfig(funcs, schemes, a.widths, a.seed, a.random)
	default:
		cfg = campaign.Config{
			Funcs: funcs, Schemes: schemes, Widths: a.widths,
			Lanes: campaign.AllLanes, Stride: a.stride, RandomN: a.random,
			Seed: a.seed,
		}
	}
	if a.unitSize != 0 {
		cfg.UnitSize = a.unitSize
	}
	cfg.UseFuncs = a.useFuncs

	plan, err := campaign.NewPlan(cfg)
	if err != nil {
		fatal(err)
	}

	checkpoint := ""
	if a.dir != "" {
		if err := os.MkdirAll(a.dir, 0o755); err != nil {
			fatal(err)
		}
		checkpoint = campaign.CheckpointPathIn(a.dir)
		if a.restart {
			if err := campaign.RemoveCheckpoint(checkpoint); err != nil {
				fatal(err)
			}
			ro.Log.Infof("campaign: checkpoint discarded, starting over")
		}
	}
	ro.Log.Infof("campaign %s: plan %.12s, %d units", mode, plan.Hash, len(plan.Units))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := &campaign.Engine{
		Plan:           plan,
		Workers:        opts.WorkerCount(),
		CheckpointPath: checkpoint,
		Log:            ro.Log,
		ProgressEvery:  a.progress,
	}
	start := time.Now()
	totals, runErr := e.Run(ctx)
	if totals == nil {
		fatal(runErr)
	}

	for _, c := range totals.Combos {
		status := "OK"
		if c.Wrong > 0 {
			status = "WRONG: " + c.First
		}
		if ro.Log.Enabled(obs.LevelInfo) {
			fmt.Printf("%-6s %-18s %-7s checked %10d  wrong results: %d (%s)\n",
				c.Fn, c.Scheme, c.Lane, c.Checked, c.Wrong, status)
		}
	}
	fmt.Printf("campaign %s: %d/%d units, checked %d, wrong %d\n",
		mode, totals.UnitsDone, totals.UnitsTotal, totals.Checked, totals.Wrong)

	if opts.Obs.ReportPath != "" {
		rep := campaign.NewReport(mode, plan)
		flag.Visit(func(f *flag.Flag) { rep.Config[f.Name] = f.Value.String() })
		rep.Config["seed"] = strconv.FormatInt(a.seed, 10)
		rep.SetTotals(totals, time.Since(start))
		rep.AttachMetrics(obs.Default())
		if err := rep.WriteFile(opts.Obs.ReportPath); err != nil {
			fatal(err)
		}
	}

	if totals.Interrupted {
		fmt.Fprintf(os.Stderr, "rlibm-check: interrupted with %d of %d units committed; rerun with the same flags to resume\n",
			totals.UnitsDone, totals.UnitsTotal)
		return 3
	}
	if totals.Wrong > int64(a.maxWrong) {
		return 1
	}
	return 0
}

// runOneShot is the original single-pass checker: stride sweep plus seeded
// random inputs per (function, scheme), no checkpointing.
func runOneShot(fnFlag, schemeFlag string, stride uint64, random int, widthList []int,
	seed int64, useFuncs bool, maxWrong int, opts *cliflags.Options, ro *obs.RunObs) int {

	var report *core.RunReport
	if opts.Obs.ReportPath != "" {
		report = core.NewRunReport("rlibm-check")
		flag.Visit(func(f *flag.Flag) { report.Config[f.Name] = f.Value.String() })
		// The seed default is wall-clock derived; record the resolved value
		// so any failing random input is reproducible from the report alone.
		report.Config["seed"] = strconv.FormatInt(seed, 10)
	}

	totalQueries, totalWrong := 0, 0
	for _, f := range libm.Funcs {
		if fnFlag != "all" && fnFlag != f.Name {
			continue
		}
		ofn, err := oracle.ParseFunc(f.Name)
		if err != nil {
			fatal(err)
		}
		for _, s := range libm.Schemes {
			if schemeFlag != "all" && schemeFlag != s.String() {
				continue
			}
			impl := f.Double
			if useFuncs {
				gen := libm.GeneratedFuncs[f.Name+"/"+s.String()]
				impl = func(x float32, _ libm.Scheme) float64 { return gen(float64(x)) }
			}
			sp := ro.Tracer.StartSpan("check", obs.Attrs{"fn": f.Name, "scheme": s.String()})
			checked, wrong, queries, first := checkOne(ofn, impl, s, stride, random, widthList, seed, opts.WorkerCount())
			sp.End(obs.Attrs{"checked": checked, "wrong": wrong})
			status := "OK"
			if wrong > 0 {
				status = "WRONG: " + first
			}
			if ro.Log.Enabled(obs.LevelInfo) {
				fmt.Printf("%-6s %-18s checked %9d  wrong results: %d (%s)\n",
					f.Name, s, checked, wrong, status)
			}
			if report != nil {
				report.AddCheck(f.Name, s.String(), checked, wrong, first)
			}
			totalQueries += queries
			totalWrong += wrong
		}
	}
	if report != nil {
		// There is no cache: every oracle query was computed.
		report.Cache = oracle.NewCacheReport(0, int64(totalQueries))
		report.AttachMetrics(obs.Default())
		if err := report.WriteFile(opts.Obs.ReportPath); err != nil {
			fatal(err)
		}
	}
	if totalWrong > maxWrong {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlibm-check:", err)
	os.Exit(1)
}

// checkOne sweeps one implementation variant, sharded across workers. The
// stride sweep is interleaved by index (worker w takes every workers-th
// input) so an exhaustive -stride 1 run never materializes the 2^32 inputs;
// the seeded random inputs are drawn once, serially, and sharded the same
// way. Every per-input verification is independent, so summing the counts
// and taking the failure with the smallest global input index reports
// exactly what a serial sweep would. queries counts the oracle answers the
// sweep computed.
func checkOne(fn oracle.Func, impl func(float32, libm.Scheme) float64, s libm.Scheme,
	stride uint64, random int, widths []int, seed int64, workers int) (checked, wrong, queries int, first string) {

	rng := rand.New(rand.NewSource(seed))
	randoms := make([]float32, random)
	for i := range randoms {
		randoms[i] = math.Float32frombits(rng.Uint32())
	}
	sweepCount := (uint64(1<<32) + stride - 1) / stride
	ts := oracle.Targets{Widths: widths, ExpBits: 8, Modes: fp.StandardModes}

	if workers < 1 {
		workers = 1
	}
	type report struct {
		checked, wrong, queries int
		firstIdx                uint64 // global input index of the first failure
		first                   string
	}
	reports := make([]report, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := &reports[w]
			rep.firstIdx = math.MaxUint64
			verify := func(idx uint64, x float32) {
				fx := float64(x)
				if math.IsNaN(fx) || math.IsInf(fx, 0) || fx == 0 {
					return
				}
				if fn.IsLog() && fx <= 0 {
					return
				}
				t := ts.Check(nil, fn, fx, impl(x, s))
				rep.checked += t.Checked
				rep.queries += t.Queries
				if t.Wrong > 0 {
					rep.wrong += t.Wrong
					if idx < rep.firstIdx {
						rep.firstIdx = idx
						rep.first = fmt.Sprintf("%v(%g) w=%d %v: got %g want %g",
							fn, x, t.First.Bits, t.First.Mode, t.First.Got, t.First.Want)
					}
				}
			}
			for i := uint64(w); i < sweepCount; i += uint64(workers) {
				verify(i, math.Float32frombits(uint32(i*stride)))
			}
			for j := w; j < len(randoms); j += workers {
				verify(sweepCount+uint64(j), randoms[j])
			}
		}(w)
	}
	wg.Wait()
	firstIdx := uint64(math.MaxUint64)
	for _, rep := range reports {
		checked += rep.checked
		wrong += rep.wrong
		queries += rep.queries
		if rep.firstIdx < firstIdx {
			firstIdx = rep.firstIdx
			first = rep.first
		}
	}
	return checked, wrong, queries, first
}
