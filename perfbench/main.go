// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the code of the checkout it sits in, checks every
// output, and prints every metric by name with its unit. BENCHMARK.json at
// the repository root describes the workloads and metrics; README.md in this
// directory explains them. Run it through run.py, which builds this program
// and rlibm-serve from source first:
//
//	python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the machine-readable result:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer metrics
// of a separate traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stat is a reported metric plus the in-run distribution it summarises.
type stat struct {
	metric
	Dist *summary `json:"dist,omitempty"`
}

// report is everything one workload pass produces.
type report struct {
	// E2E holds the end-to-end metrics, the same five names on every
	// workload.
	E2E map[string]stat `json:"end_to_end"`
	// Named holds the workload's own metrics under their specific names
	// (call_ns, stream_p99_us, gen_s, ...); the end-to-end metrics are
	// drawn from these.
	Named map[string]stat `json:"named"`
	// Layer holds per-layer metrics (traced passes only).
	Layer map[string]metric `json:"per_layer,omitempty"`
	// Samples holds every raw sample behind the distributions.
	Samples map[string]samples `json:"samples"`
	Tally   tally              `json:"tally"`
	// Checks holds correctness facts that are reported as counts rather
	// than failures (known residuals, campaign tallies).
	Checks map[string]any `json:"checks,omitempty"`
}

func newReport() *report {
	return &report{E2E: map[string]stat{}, Named: map[string]stat{}, Layer: map[string]metric{},
		Samples: map[string]samples{}, Checks: map[string]any{}}
}

// dist records xs under name and returns their summary.
func (r *report) dist(name string, xs []float64) *summary {
	r.Samples[name] = xs
	s := summarize(xs)
	return &s
}

// samples is a raw sample series, written with six significant digits,
// which is more than any timing here resolves.
type samples []float64

func (xs samples) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', 6, 64)
	}
	return append(b, ']'), nil
}

func (r *report) named(name, unit string, v float64, d *summary) {
	r.Named[name] = stat{metric{v, unit}, d}
}

func (r *report) e2e(name, unit string, v float64, d *summary) {
	r.E2E[name] = stat{metric{v, unit}, d}
}

func (r *report) layer(name, unit string, v float64) { r.Layer[name] = metric{v, unit} }

// End-to-end metric names: every workload reports all four, each with its
// own definition of the operation being timed (see README.md). The p99 is
// a per-layer metric, client.latency_p99_us: on a VM whose host steals CPU
// in 10-60 ms bursts it does not repeat within any usable bound.
const (
	mLatP50     = "latency_p50_us"
	mThroughput = "throughput_per_s"
	mSetup      = "setup_s"
	mRSS        = "rss_peak_mib"
	lP99        = "client.latency_p99_us"
)

// env is the run's context: where the built binaries are, the workload
// seed, and whether this pass belongs to a traced run.
type env struct {
	BinDir string // built binaries (rlibm-serve, perfbench-v3)
	OutDir string // result files, beside BinDir
	Seed   int64
	Traced bool // part of a --trace 1 run: serve_stream skips its saturated segment
	Probe  bool // a short pass run only to fill per-layer metrics
}

// workload is one named set of inputs; BENCHMARK.json records why each
// was chosen. serve_stream is not in BENCHMARK.json, because its open-loop
// latency does not repeat on a shared VM (README.md); it still runs by name,
// and as a probe in every traced run, so its per-layer metrics are measured.
type workload struct {
	name string
	run  func(e *env, seconds float64, tr *recorder) (*report, error)
}

var workloads = []workload{
	{"kernels", runKernels},
	{"serve_stream", runServeStream},
	{"serve_http_bulk", runServeHTTP},
	{"gen_verify", runGenVerify},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := runChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: kernels, serve_stream, serve_http_bulk or gen_verify")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	e, err := newEnv(*seed, *trace == 1)
	if err != nil {
		fatal(err)
	}
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(e, w, *seconds)
	} else {
		rep, err = w.run(e, *seconds, nil)
	}
	if err != nil {
		fatal(err)
	}
	if err := emit(e, w.name, *seconds, *trace, rep); err != nil {
		fatal(err)
	}
}

func newEnv(seed int64, traced bool) (*env, error) {
	bin := os.Getenv("PERFBENCH_BIN")
	if bin == "" {
		bin = filepath.Join(".bench_build", "bin")
	}
	out := filepath.Join(filepath.Dir(bin), "results")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &env{BinDir: bin, OutDir: out, Seed: seed, Traced: traced}, nil
}

// tracedRun is the separate traced run: the workload once untraced and once
// traced for half the time each (their latency_p50_us gives the tracing
// overhead), then a short traced probe of every other workload, so that every
// per-layer metric is measured on every traced run. Metrics from the
// workload's own pass take precedence over the probes'.
func tracedRun(e *env, w *workload, seconds float64) (*report, error) {
	half := seconds / 2
	base, err := w.run(e, half, nil)
	if err != nil {
		return nil, err
	}
	tr := newRecorder()
	rep, err := w.run(e, half, tr)
	if err != nil {
		return nil, err
	}
	rep.Tally.add(base.Tally)
	overhead := (rep.E2E[mLatP50].Value/base.E2E[mLatP50].Value - 1) * 100
	rep.layer("obs.trace_overhead_pct", "%", overhead)
	probes := map[string]any{}
	for i := range workloads {
		p := &workloads[i]
		if p.name == w.name {
			continue
		}
		pe := *e
		pe.Probe = true
		prep, err := p.run(&pe, probeSeconds, tr)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
		rep.Tally.add(prep.Tally)
		for k, v := range prep.Layer {
			if _, ok := rep.Layer[k]; !ok {
				rep.Layer[k] = v
			}
		}
		probes[p.name] = prep.Named
	}
	rep.Checks["probes"] = probes
	spans := tr.snapshot()
	rep.Checks["self_times"] = selfTimes(spans)
	path := filepath.Join(e.OutDir, fmt.Sprintf("spans-%s-seed%d-%d.jsonl.gz", w.name, e.Seed, time.Now().UnixNano()))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rep.Checks["spans_file"] = path
	return rep, nil
}

// probeSeconds is how long a traced run spends on each other workload.
const probeSeconds = 2.0

// environment is the block every result carries, so that the machine and
// the build behind a number are recorded with it.
func environment(seed int64) map[string]any {
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"goarch":     runtime.GOARCH,
		"goamd64":    goamd64,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
		"source":     os.Getenv("PERFBENCH_SOURCE"),
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emit writes the full result file, prints every metric by name with its
// unit, and ends with the one-line JSON result.
func emit(e *env, name string, seconds float64, trace int, rep *report) error {
	failed := rep.Tally.failed()
	metrics := map[string]metric{}
	if trace == 1 {
		metrics = rep.Layer
	} else {
		for k, v := range rep.E2E {
			metrics[k] = v.metric
		}
	}
	full := map[string]any{
		"workload":     name,
		"seconds":      seconds,
		"trace":        trace,
		"environment":  environment(e.Seed),
		"report":       rep,
		"failed_ratio": rep.Tally.ratio(),
	}
	path := filepath.Join(e.OutDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", name, e.Seed, trace, time.Now().UnixNano()))
	buf, err := json.Marshal(full)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d trace %d: %d attempted, %d failed (ratio %.3g); full result in %s\n",
		name, e.Seed, trace, rep.Tally.Attempted, failed, rep.Tally.ratio(), path)
	printStats := func(title string, m map[string]stat) {
		fmt.Println(title)
		for _, k := range sortedKeys(m) {
			s := m[k]
			if s.Dist != nil {
				fmt.Printf("  %-34s %14.6g %-6s (p25 %.4g, p75 %.4g, p%s %.4g, n=%d)\n", k, s.Value, s.Unit,
					s.Dist.P25, s.Dist.P75, strconv.FormatFloat(s.Dist.TailQ*100, 'g', -1, 64), s.Dist.Tail, s.Dist.N)
			} else {
				fmt.Printf("  %-34s %14.6g %s\n", k, s.Value, s.Unit)
			}
		}
	}
	printStats("end-to-end:", rep.E2E)
	printStats("workload metrics:", rep.Named)
	if trace == 1 {
		fmt.Println("per-layer:")
		for _, k := range sortedKeys(rep.Layer) {
			fmt.Printf("  %-44s %14.6g %s\n", k, rep.Layer[k].Value, rep.Layer[k].Unit)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": rep.Tally.Attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMiB returns the peak resident set (VmHWM) of process pid, or of
// this process when pid is 0, in MiB.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// childSetup runs this binary as a fresh child process in setup mode n times
// and returns each child's set-up time in seconds, as the child timed it
// itself (its setup_ms), plus the child's report lines (one JSON object per
// spawn). The child's own clock leaves out exec, the Go runtime's start and
// process exit, which are costs of the harness rather than of the program.
func childSetup(mode string, seed int64, n int) ([]float64, []map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	var reports []map[string]float64
	for i := 0; i < n; i++ {
		out, err := exec.Command(self, "child", mode, strconv.FormatInt(seed, 10)).Output()
		if err != nil {
			return nil, nil, fmt.Errorf("setup child %s: %w", mode, err)
		}
		var rep map[string]float64
		if err := json.Unmarshal(out, &rep); err != nil {
			return nil, nil, fmt.Errorf("setup child %s output: %w", mode, err)
		}
		ms, ok := rep["setup_ms"]
		if !ok {
			return nil, nil, fmt.Errorf("setup child %s reported no setup_ms", mode)
		}
		times = append(times, ms/1e3)
		reports = append(reports, rep)
	}
	return times, reports, nil
}

// runChild dispatches the child modes: fresh-process set-up timing for the
// in-process workloads, and the kernel probe a GOAMD64=v3 build runs.
func runChild(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench child <setup-kernels|setup-gen|v3probe> <seed>")
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return err
	}
	var rep map[string]float64
	switch args[0] {
	case "setup-kernels":
		rep, err = setupKernels()
	case "setup-gen":
		rep, err = setupGen(seed)
	case "v3probe":
		rep, err = v3Probe(seed)
	default:
		return fmt.Errorf("unknown child mode %q", args[0])
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
