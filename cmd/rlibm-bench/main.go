// Command rlibm-bench is the performance-testing framework: it times the 24
// generated implementations over dense input sweeps and prints the speedup
// report of the paper's Table 2 / Figure 6 — the equivalent of the
// artifact's runRLIBMAll.sh + SpeedupOverRLIBM.py.
//
// The paper counts cycles with rdtscp on a tuned Xeon; this harness measures
// wall-clock ns/op over the same kind of sweep, using the straight-line
// function backend (specialized code per implementation, like the
// artifact's generated C). Absolute numbers differ from the paper's
// testbed, but the quantity the paper reports — speedup relative to the
// RLibm/Horner baseline — is preserved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"rlibm/internal/cliflags"
	"rlibm/internal/libm"
	"rlibm/internal/obs"
)

// benchReport is the machine-readable output of -out: per-scheme latencies
// and relative speedups, or (with -serve-bench) the serving-layer results.
type benchReport struct {
	Tool      string `json:"tool"`
	CreatedAt string `json:"created_at"`
	Git       string `json:"git,omitempty"`
	Inputs    int    `json:"inputs,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
	Seed      int64  `json:"seed"`

	// Functions maps function name -> scheme name -> best ns/op.
	Functions map[string]map[string]float64 `json:"functions,omitempty"`
	// AvgSpeedupPct maps scheme name -> average speedup over the Horner
	// baseline, in percent (the paper's Table 2 quantity).
	AvgSpeedupPct map[string]float64 `json:"avg_speedup_pct,omitempty"`

	Serve *serveBenchReport `json:"serve,omitempty"`
}

// resolveReportPath expands "auto" to BENCH_<timestamp>.json, appending a
// _2, _3, ... disambiguator when that name is taken — two runs finishing in
// the same second must not clobber each other's reports. exists is os.Stat
// in production, injectable for tests.
func resolveReportPath(path string, now time.Time, exists func(string) bool) string {
	if path != "auto" {
		return path
	}
	base := now.UTC().Format("BENCH_20060102T150405Z")
	path = base + ".json"
	for n := 2; exists(path); n++ {
		path = fmt.Sprintf("%s_%d.json", base, n)
	}
	return path
}

// writeReport resolves -out ("auto" -> a fresh BENCH_<timestamp>.json) and
// writes the report.
func writeReport(path string, rep *benchReport) {
	path = resolveReportPath(path, time.Now(), func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	})
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func main() {
	var (
		inputs   = flag.Int("inputs", 1<<16, "number of inputs per sweep")
		rounds   = flag.Int("rounds", 9, "timed repetitions; the minimum is reported")
		seed     = flag.Int64("seed", 42, "input generation seed")
		serveB   = flag.Bool("serve-bench", false, "benchmark the HTTP serving layer instead: in-process server, concurrent clients over all func x scheme combos, bit-for-bit verification")
		serveCl  = flag.Int("serve-clients", 4, "concurrent clients for -serve-bench")
		serveReq = flag.Int("serve-requests", 120, "requests per client for -serve-bench")
		serveBat = flag.Int("serve-batch", 4096, "elements per request for -serve-bench")
		smallReq = flag.Int("serve-small-requests", 400, "small requests per client for the many-small-requests workload (0 skips it)")
		smallEl  = flag.Int("serve-small-elems", 64, "elements per small request")
		replicas = flag.Int("serve-replicas", 2, "in-process server replicas for the round-robin fleet mode (<2 skips it)")
		serveCan = flag.Float64("serve-canary", 0.002, "fraction of served elements the online correctness canary re-verifies against the oracle during -serve-bench (0 disables)")
		serveMet = flag.String("serve-metricz", "", "write the -serve-bench server's metrics snapshot (the /metricz JSON shape) to this file")
		outPath  = flag.String("out", "", "write a machine-readable JSON benchmark report to this file (\"auto\" = BENCH_<timestamp>.json)")
		opts     = cliflags.Register(flag.CommandLine)
	)
	flag.Parse()

	ro, err := opts.Obs.Start()
	if err != nil {
		fatal(err)
	}
	defer ro.Close()

	rep := &benchReport{Tool: "rlibm-bench", Git: obs.GitDescribe(), Seed: *seed}

	if *serveB {
		rep.Serve = benchServe(*serveCl, *serveReq, *serveBat, *rounds, *smallReq, *smallEl, *replicas, *seed,
			*serveCan, *serveMet, ro.Tracer)
		if *outPath != "" {
			writeReport(*outPath, rep)
		}
		if err := ro.Close(); err != nil {
			fatal(err)
		}
		return
	}
	rep.Inputs, rep.Rounds = *inputs, *rounds

	fmt.Printf("rlibm-bench: %d inputs/function, best of %d rounds\n\n", *inputs, *rounds)

	type row struct {
		name string
		ns   [4]float64
	}
	var rows []row
	rep.Functions = map[string]map[string]float64{}
	for _, name := range libm.FuncNames {
		sweep := makeSweep(name, *inputs, *seed)
		var r row
		r.name = name
		var impls [4]func(float64) float64
		for si, s := range libm.Schemes {
			impls[si] = libm.GeneratedFuncs[name+"/"+s.String()]
			if impls[si] == nil {
				fmt.Fprintf(os.Stderr, "missing generated function %s/%v\n", name, s)
				os.Exit(1)
			}
			r.ns[si] = math.Inf(1)
		}
		// Interleave the four schemes within every round so clock drift and
		// scheduler noise hit them equally; keep the best round per scheme.
		for round := 0; round < *rounds; round++ {
			for si := range impls {
				if ns := timeOnce(impls[si], sweep); ns < r.ns[si] {
					r.ns[si] = ns
				}
			}
		}
		rows = append(rows, r)
		perScheme := map[string]float64{}
		for si, s := range libm.Schemes {
			perScheme[s.String()] = r.ns[si]
		}
		rep.Functions[name] = perScheme
		fmt.Printf("%-6s  rlibm %7.2f ns/op   knuth %7.2f   estrin %7.2f   estrin+fma %7.2f\n",
			name, r.ns[0], r.ns[1], r.ns[2], r.ns[3])
	}

	fmt.Println()
	rep.AvgSpeedupPct = map[string]float64{}
	names := []string{"RLIBM-Knuth", "RLIBM-Estrin", "RLIBM-Estrin-FMA"}
	for si := 1; si <= 3; si++ {
		fmt.Printf("Speedup of %s over RLIBM\n", names[si-1])
		sum := 0.0
		for _, r := range rows {
			sp := (r.ns[0]/r.ns[si] - 1) * 100
			sum += sp
			fmt.Printf("%s: %.2f%%\n", r.name, sp)
		}
		avg := sum / float64(len(rows))
		rep.AvgSpeedupPct[libm.Schemes[si].String()] = avg
		fmt.Printf("Average speedup of %s over RLIBM: %.2f%%\n\n", names[si-1], avg)
	}
	if *outPath != "" {
		writeReport(*outPath, rep)
	}
	if err := ro.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlibm-bench:", err)
	os.Exit(1)
}

// makeSweep draws inputs spanning the function's interesting domain: the
// polynomial path dominates, with a sprinkle of special-path values, like
// the artifact's whole-input-space sweeps.
func makeSweep(name string, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		switch name {
		case "exp":
			out[i] = float64(float32(rng.Float64()*176 - 87))
		case "exp2":
			out[i] = float64(float32(rng.Float64()*252 - 126))
		case "exp10":
			out[i] = float64(float32(rng.Float64()*76 - 38))
		default: // logarithms: positive values across the full binade range
			out[i] = float64(float32(math.Ldexp(1+rng.Float64(), rng.Intn(252)-126)))
		}
	}
	return out
}

// timeOnce reports the per-call latency of impl over one pass of the sweep.
//
// Calls are serialized through a data dependence (each input is nudged by a
// value derived from the previous result — zero or one unit in the last
// place of a double, which never changes a float32-level answer). Without
// the chain, the out-of-order core overlaps iterations and the measurement
// becomes a throughput number, hiding exactly the dependence-chain effect
// the paper measures with the serializing rdtscp instruction.
func timeOnce(impl func(float64) float64, sweep []float64) float64 {
	var prev float64
	start := time.Now()
	for _, x := range sweep {
		prev = impl(x + math.Float64frombits(math.Float64bits(prev)&1))
	}
	elapsed := time.Since(start).Seconds() * 1e9 / float64(len(sweep))
	if prev == 42 { // defeat dead-code elimination
		fmt.Fprint(os.Stderr, "")
	}
	return elapsed
}
