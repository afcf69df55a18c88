package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlibm/internal/obs"
	"rlibm/internal/serve"
	"rlibm/pkg/rlibm"
)

// serveBenchReport is the -serve-bench section: end-to-end load numbers for
// the HTTP serving layer (binary endpoint) plus the per-element comparison
// between the batch kernel path and per-call scalar dispatch that motivates
// it. Mismatches counts responses that were not bit-identical to a direct
// kernel call and must be zero.
type serveBenchReport struct {
	Clients    int   `json:"clients"`
	BatchElems int   `json:"batch_elems"`
	Requests   int   `json:"requests"`
	Elems      int64 `json:"elems"`
	Mismatches int64 `json:"mismatches"`

	DurationMs  float64 `json:"duration_ms"`
	ReqPerSec   float64 `json:"req_per_sec"`
	MelemPerSec float64 `json:"melem_per_sec"`
	P50Us       float64 `json:"p50_us"`
	P90Us       float64 `json:"p90_us"`
	P99Us       float64 `json:"p99_us"`

	// ScalarNsPerElem runs Eval in a loop (per-call table dispatch);
	// BatchNsPerElem runs EvalBatch over the same inputs. The speedup is the
	// win from the generated blocked batch kernels alone — same machine, same
	// sweep, no HTTP in either number.
	ScalarNsPerElem float64 `json:"scalar_ns_per_elem"`
	BatchNsPerElem  float64 `json:"batch_ns_per_elem"`
	BatchSpeedupPct float64 `json:"batch_speedup_pct"`

	// Backends is the batch-kernel backend comparison: one row per concrete
	// backend the machine offers (go, vector, and asm where the conversion
	// staging exists), each timing EvalBatch over identical sweeps against
	// the same per-call scalar Eval baseline, per function and averaged. All
	// backends are bit-identical, so the rows differ only in ns/elem. CI
	// gates the vector row on exp and log2 at <=
	// max_vector_scalar_ratio x the scalar ns/elem from the same run
	// (ci/vector-baseline.json) — a ratio, like the other serve gates, so
	// runner speed divides out.
	Backends []backendBenchReport `json:"backends,omitempty"`

	// MixedPrecision is the narrow-precision section: per-element sweep
	// cost at each output precision (the narrow rows round the full
	// kernel's result once; bf16 answers its own inputs from the memo
	// table), plus bit-exact verification of the serving layer's ?prec=
	// path against the matching Evaluator. CI
	// gates the bf16 row at <= 0.75x the float32 ns/elem against
	// ci/prog-baseline.json. MixedCanary holds the online canary totals for
	// that pass (absent when the canary was disabled): the canary re-checked
	// a sample of the served narrow-precision elements against the Ziv
	// oracle at their own output formats, and Mismatch must be zero.
	MixedPrecision []precBenchReport `json:"mixed_precision,omitempty"`
	MixedCanary    *canaryTotals     `json:"mixed_precision_canary,omitempty"`

	// Online correctness canary totals for the load run (absent when the
	// canary was disabled). CanaryMismatch must be zero: the canary re-checks
	// a sample of what this bench actually served against the Ziv oracle.
	CanaryChecked  int64 `json:"canary_checked,omitempty"`
	CanaryMismatch int64 `json:"canary_mismatch,omitempty"`
	CanaryDropped  int64 `json:"canary_dropped,omitempty"`
	CanarySkipped  int64 `json:"canary_skipped,omitempty"`

	// Small is the many-small-requests workload: the fleet traffic shape
	// the coalescer and streaming protocol exist for.
	Small *smallReqReport `json:"small_requests,omitempty"`
	// Replicas is the multi-replica round-robin mode.
	Replicas *replicaBenchReport `json:"replicas,omitempty"`
}

// smallReqReport compares the two transports under many small requests: the
// HTTP-per-request baseline (one POST per batch, keep-alive on) against the
// coalesced streaming path (persistent connections, requests multiplexed by
// id, server-side cross-request coalescing into shared sweeps). SpeedupX is
// the aggregate-throughput ratio — the number the serving tentpole is judged
// on — and both paths are verified bit-for-bit against direct kernel calls.
type smallReqReport struct {
	Clients     int   `json:"clients"`
	ReqPerCli   int   `json:"requests_per_client"`
	ElemsPerReq int   `json:"elems_per_request"`
	Mismatches  int64 `json:"mismatches"`

	HTTPDurationMs    float64 `json:"http_duration_ms"`
	HTTPReqPerSec     float64 `json:"http_req_per_sec"`
	HTTPMelemPerSec   float64 `json:"http_melem_per_sec"`
	StreamDurationMs  float64 `json:"stream_duration_ms"`
	StreamReqPerSec   float64 `json:"stream_req_per_sec"`
	StreamMelemPerSec float64 `json:"stream_melem_per_sec"`
	SpeedupX          float64 `json:"speedup_x"`

	// PhaseMeanUs attributes mean request latency to the serving phases
	// (decode, queue, sweep, encode), aggregated over every (func, scheme)
	// combo both transports drove — the breakdown that says where a small
	// request's time actually goes.
	PhaseMeanUs map[string]float64 `json:"phase_mean_us,omitempty"`
}

// replicaBenchReport is the round-robin fleet mode: N in-process server
// replicas (own registries, own listeners), clients spread across them, one
// aggregate Melem/s across the fleet.
type replicaBenchReport struct {
	Replicas    int   `json:"replicas"`
	Clients     int   `json:"clients"`
	ReqPerCli   int   `json:"requests_per_client"`
	ElemsPerReq int   `json:"elems_per_request"`
	Mismatches  int64 `json:"mismatches"`

	DurationMs     float64 `json:"duration_ms"`
	AggReqPerSec   float64 `json:"agg_req_per_sec"`
	AggMelemPerSec float64 `json:"agg_melem_per_sec"`
}

// benchServe spins up the serving stack in-process on a loopback listener,
// drives clients concurrent HTTP clients round-robin over all func x scheme
// combinations on the binary endpoint, and verifies every response element
// bit-for-bit against a direct kernel call.
func benchServe(clients, reqsPerClient, batchElems, rounds, smallReqs, smallElems, replicas int, seed int64,
	canaryRate float64, metriczPath string, tracer *obs.Tracer) *serveBenchReport {
	fmt.Printf("rlibm-bench -serve-bench: %d clients x %d requests, %d elems/request, seed %d\n",
		clients, reqsPerClient, batchElems, seed)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		MaxBatch: batchElems,
		Registry: reg,
		Log:      obs.NewLogger(io.Discard, obs.LevelQuiet),
		// With -trace the bench doubles as a tracing exerciser: every request
		// emits its per-phase spans, so the trace artifact covers the full
		// decode/queue/sweep/encode attribution for all 24 combos.
		Tracer:       tracer,
		TraceSample:  1,
		CanarySample: canaryRate,
		CanaryQueue:  1 << 14,
	})
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Every client cycles through all 24 combos, offset by its index so the
	// server sees a mixed stream rather than 24 synchronized phases.
	type combo struct {
		f rlibm.Func
		s rlibm.Scheme
	}
	var combos []combo
	for _, f := range rlibm.Funcs {
		for _, s := range rlibm.Schemes {
			combos = append(combos, combo{f, s})
		}
	}

	var (
		mismatches atomic.Int64
		wg         sync.WaitGroup
		latencies  = make([][]time.Duration, clients)
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			rng := rand.New(rand.NewSource(seed + int64(c)))
			src := make([]float32, batchElems)
			frame := make([]byte, 4*batchElems)
			lat := make([]time.Duration, 0, reqsPerClient)
			for r := 0; r < reqsPerClient; r++ {
				cb := combos[(c+r)%len(combos)]
				fillSweep32(src, cb.f, rng)
				for i, x := range src {
					binary.LittleEndian.PutUint32(frame[4*i:], math.Float32bits(x))
				}
				url := fmt.Sprintf("%s/v1/evalbin/%v/%v", base, cb.f, cb.s)
				t0 := time.Now()
				resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat = append(lat, time.Since(t0))
				if err != nil {
					fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					fatal(fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body))
				}
				if len(body) != 4*len(src) {
					fatal(fmt.Errorf("%s: response has %d bytes, want %d", url, len(body), 4*len(src)))
				}
				k := kernelFor(cb.f, cb.s)
				for i, x := range src {
					got := math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
					want := float32(k(float64(x)))
					if math.Float32bits(got) != math.Float32bits(want) {
						mismatches.Add(1)
					}
				}
			}
			latencies[c] = lat
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	cancel()
	if err := <-serveErr; err != nil {
		fatal(err)
	}
	srv.Close() // drain the canary so its totals below are final

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) float64 {
		return float64(all[int(q*float64(len(all)-1))]) / 1e3
	}

	requests := clients * reqsPerClient
	rep := &serveBenchReport{
		Clients:     clients,
		BatchElems:  batchElems,
		Requests:    requests,
		Elems:       int64(requests) * int64(batchElems),
		Mismatches:  mismatches.Load(),
		DurationMs:  elapsed.Seconds() * 1e3,
		ReqPerSec:   float64(requests) / elapsed.Seconds(),
		MelemPerSec: float64(requests) * float64(batchElems) / elapsed.Seconds() / 1e6,
		P50Us:       pct(0.50),
		P90Us:       pct(0.90),
		P99Us:       pct(0.99),
	}
	rep.ScalarNsPerElem, rep.BatchNsPerElem = benchDispatch(batchElems, rounds, seed)
	rep.BatchSpeedupPct = (rep.ScalarNsPerElem/rep.BatchNsPerElem - 1) * 100
	rep.Backends = benchBackends(batchElems, rounds, seed)
	rep.MixedPrecision, rep.MixedCanary = benchPrecisions(batchElems, rounds, seed, canaryRate)

	fmt.Printf("  %d requests (%d elems) in %v: %.0f req/s, %.1f Melem/s\n",
		rep.Requests, rep.Elems, elapsed.Round(time.Millisecond), rep.ReqPerSec, rep.MelemPerSec)
	fmt.Printf("  latency p50 %.0f us   p90 %.0f us   p99 %.0f us\n", rep.P50Us, rep.P90Us, rep.P99Us)
	fmt.Printf("  scalar dispatch %.2f ns/elem   batch %.2f ns/elem   (batch %.1f%% faster)\n",
		rep.ScalarNsPerElem, rep.BatchNsPerElem, rep.BatchSpeedupPct)
	for _, row := range rep.Backends {
		mark := ""
		if row.Default {
			mark = "   (auto)"
		}
		fmt.Printf("  backend %-7s %.2f ns/elem   %.2fx vs scalar   (exp %.2fx, log2 %.2fx)%s\n",
			row.Backend, row.NsPerElem, row.VsScalarX,
			row.FuncVsScalarX["exp"], row.FuncVsScalarX["log2"], mark)
	}
	if rep.Mismatches != 0 {
		fmt.Fprintf(os.Stderr, "rlibm-bench: %d responses not bit-identical to direct kernel calls\n", rep.Mismatches)
		os.Exit(1)
	}
	fmt.Println("  all responses bit-identical to direct kernel calls: ok")

	obs.CaptureRuntime(reg)
	snap := reg.Snapshot()
	if canaryRate > 0 {
		rep.CanaryChecked = snap.Counter("serve.canary.checked_total")
		rep.CanaryMismatch = snap.Counter("serve.canary.mismatch_total")
		rep.CanaryDropped = snap.Counter("serve.canary.dropped_total")
		rep.CanarySkipped = snap.Counter("serve.canary.skipped_total")
		fmt.Printf("  canary (1/%d elems): checked %d, mismatched %d, dropped %d, skipped %d\n",
			int64(1/canaryRate+0.5), rep.CanaryChecked, rep.CanaryMismatch, rep.CanaryDropped, rep.CanarySkipped)
		if rep.CanaryMismatch != 0 {
			fmt.Fprintf(os.Stderr, "rlibm-bench: canary found %d served elements not matching the oracle\n", rep.CanaryMismatch)
			os.Exit(1)
		}
		if rep.CanaryChecked == 0 {
			fmt.Fprintln(os.Stderr, "rlibm-bench: canary enabled but checked nothing (queue drained away?)")
			os.Exit(1)
		}
	}
	if metriczPath != "" {
		writeMetricz(metriczPath, snap)
	}

	if smallReqs > 0 {
		rep.Small = benchSmallRequests(clients, smallReqs, smallElems, seed)
	}
	if replicas > 1 && smallReqs > 0 {
		rep.Replicas = benchReplicas(replicas, clients*replicas, smallReqs, smallElems, seed)
	}
	return rep
}

// writeMetricz writes the load-run server's metrics snapshot in the /metricz
// JSON shape (registry snapshot plus build identity) — the CI serve-smoke job
// uploads it as an artifact and gates on the canary and phase-histogram
// counters inside it.
func writeMetricz(path string, snap obs.Snapshot) {
	out := struct {
		obs.Snapshot
		BuildInfo obs.BuildIdentity `json:"build_info"`
	}{Snapshot: snap, BuildInfo: obs.Build()}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// phaseMeans aggregates the per-(func,scheme) phase histograms in snap into
// one mean per phase, in microseconds.
func phaseMeans(snap obs.Snapshot) map[string]float64 {
	sums := map[string]int64{}
	counts := map[string]int64{}
	for name, h := range snap.Histograms {
		i := strings.Index(name, "/phase/")
		if !strings.HasPrefix(name, "serve/") || i < 0 {
			continue
		}
		phase := strings.TrimSuffix(name[i+len("/phase/"):], "_ns")
		sums[phase] += h.Sum
		counts[phase] += h.Count
	}
	out := map[string]float64{}
	for phase, n := range counts {
		if n > 0 {
			out[phase] = float64(sums[phase]) / float64(n) / 1e3
		}
	}
	return out
}

// kernelFor resolves the full-precision reference kernel through the
// Evaluator API (the package-level Kernel is deprecated); combos are always
// valid here, so a constructor error is a bench bug.
func kernelFor(f rlibm.Func, s rlibm.Scheme) func(float64) float64 {
	ev, err := rlibm.New(f, s)
	if err != nil {
		fatal(err)
	}
	return ev.Kernel()
}

// benchDispatch times per-call scalar dispatch (Eval in a loop) against the
// batch entry point (EvalBatch) over identical sweeps, best of rounds,
// averaged across all six functions with the Estrin+FMA scheme. Per-element
// nanoseconds for both paths.
func benchDispatch(n, rounds int, seed int64) (scalarNs, batchNs float64) {
	src := make([]float32, n)
	dst := make([]float32, n)
	rng := rand.New(rand.NewSource(seed))
	var sink float32
	for _, f := range rlibm.Funcs {
		ev, err := rlibm.New(f, rlibm.EstrinFMA)
		if err != nil {
			fatal(err)
		}
		fillSweep32(src, f, rng)
		bestScalar, bestBatch := math.Inf(1), math.Inf(1)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i, x := range src {
				dst[i] = ev.Eval(x)
			}
			if ns := time.Since(t0).Seconds() * 1e9 / float64(n); ns < bestScalar {
				bestScalar = ns
			}
			sink += dst[0]
			t0 = time.Now()
			ev.EvalBatch(dst, src)
			if ns := time.Since(t0).Seconds() * 1e9 / float64(n); ns < bestBatch {
				bestBatch = ns
			}
			sink += dst[0]
		}
		scalarNs += bestScalar
		batchNs += bestBatch
	}
	if sink == 42 { // defeat dead-code elimination
		fmt.Fprint(os.Stderr, "")
	}
	return scalarNs / float64(len(rlibm.Funcs)), batchNs / float64(len(rlibm.Funcs))
}

// backendBenchReport is one row of the per-backend section: per-element batch
// cost under one backend, per function and averaged, with the speedup over
// the per-call scalar Eval baseline measured in the same pass.
type backendBenchReport struct {
	Backend string `json:"backend"`
	// Default marks the row BackendAuto resolves to on this machine — the
	// backend the serving layer and package-level batch calls actually run.
	Default       bool               `json:"default,omitempty"`
	NsPerElem     float64            `json:"ns_per_elem"`
	VsScalarX     float64            `json:"speedup_vs_scalar_x"`
	FuncNsPerElem map[string]float64 `json:"func_ns_per_elem"`
	FuncVsScalarX map[string]float64 `json:"func_speedup_vs_scalar_x"`
}

// benchBackends times EvalBatch under every backend the machine offers over
// identical sweeps (best of rounds, Estrin+FMA, full precision), against one
// shared per-call scalar Eval baseline. The scalar baseline is timed once
// per function — it is backend-independent by construction.
func benchBackends(n, rounds int, seed int64) []backendBenchReport {
	backends, err := rlibm.Backends(rlibm.FuncExp, rlibm.EstrinFMA, rlibm.PrecFloat32)
	if err != nil {
		fatal(err)
	}
	src := make([]float32, n)
	dst := make([]float32, n)
	rng := rand.New(rand.NewSource(seed))
	var sink float32

	scalarNs := map[string]float64{}
	sweeps := map[string][]float32{}
	for _, f := range rlibm.Funcs {
		ev, err := rlibm.New(f, rlibm.EstrinFMA)
		if err != nil {
			fatal(err)
		}
		fillSweep32(src, f, rng)
		sweeps[f.String()] = append([]float32(nil), src...)
		best := math.Inf(1)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i, x := range src {
				dst[i] = ev.Eval(x)
			}
			if ns := time.Since(t0).Seconds() * 1e9 / float64(n); ns < best {
				best = ns
			}
			sink += dst[0]
		}
		scalarNs[f.String()] = best
	}

	var auto rlibm.Backend
	if ev, err := rlibm.New(rlibm.FuncExp, rlibm.EstrinFMA); err == nil {
		auto = ev.Backend()
	}
	out := make([]backendBenchReport, 0, len(backends))
	for _, b := range backends {
		row := backendBenchReport{
			Backend:       b.String(),
			Default:       b == auto,
			FuncNsPerElem: map[string]float64{},
			FuncVsScalarX: map[string]float64{},
		}
		var sumNs, sumScalar float64
		for _, f := range rlibm.Funcs {
			ev, err := rlibm.New(f, rlibm.EstrinFMA, rlibm.WithBackend(b))
			if err != nil {
				fatal(err)
			}
			copy(src, sweeps[f.String()])
			best := math.Inf(1)
			for r := 0; r < rounds; r++ {
				t0 := time.Now()
				ev.EvalBatch(dst, src)
				if ns := time.Since(t0).Seconds() * 1e9 / float64(n); ns < best {
					best = ns
				}
				sink += dst[0]
			}
			row.FuncNsPerElem[f.String()] = best
			row.FuncVsScalarX[f.String()] = scalarNs[f.String()] / best
			sumNs += best
			sumScalar += scalarNs[f.String()]
		}
		row.NsPerElem = sumNs / float64(len(rlibm.Funcs))
		row.VsScalarX = sumScalar / sumNs
		out = append(out, row)
	}
	if sink == 42 { // defeat dead-code elimination
		fmt.Fprint(os.Stderr, "")
	}
	return out
}

// precBenchReport is one row of the mixed-precision section: the per-element
// cost of a full sweep at one output precision, its speedup over the full-
// precision row, and the served-path bit-exactness check at that precision.
type precBenchReport struct {
	Prec          string  `json:"prec"`
	NsPerElem     float64 `json:"ns_per_elem"`
	SpeedupVsFull float64 `json:"speedup_vs_full_x"`
	Mismatches    int64   `json:"mismatches"`
}

// canaryTotals is an online-canary summary for one load pass.
type canaryTotals struct {
	Checked  int64 `json:"checked"`
	Mismatch int64 `json:"mismatch"`
	Dropped  int64 `json:"dropped"`
	Skipped  int64 `json:"skipped"`
}

// benchPrecisions times EvalBatch at every output precision (best of
// rounds, averaged across the six functions, Estrin+FMA scheme) and
// verifies served /v1/evalbin?prec= responses bit for bit against the
// matching Evaluator. Each timed row serves its own format's traffic: the
// narrow rows draw the same sweeps truncated to the narrow format's
// representable inputs, the shape real mixed-precision traffic has. Every
// narrow precision rounds the full kernel's result once; bf16 additionally
// hits the memo-table fast path over its 2^16-point input space, which is
// where the per-element serving speedup comes from. Each narrow row also
// posts one untimed frame of the unmasked float32 sweep, so the served
// results and the canary cover inputs the narrow format cannot represent.
func benchPrecisions(n, rounds int, seed int64, canaryRate float64) ([]precBenchReport, *canaryTotals) {
	fmt.Printf("  mixed precision: %d elems/sweep, best of %d rounds\n", n, rounds)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		MaxBatch:     n,
		Registry:     reg,
		Log:          obs.NewLogger(io.Discard, obs.LevelQuiet),
		CanarySample: canaryRate,
		CanaryQueue:  1 << 14,
	})
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	shutdown := func() {
		cancel()
		if err := <-serveErr; err != nil {
			fatal(err)
		}
		srv.Close() // drain the canary so its totals are final
	}
	base := "http://" + ln.Addr().String()

	src := make([]float32, n)
	dst := make([]float32, n)
	frame := make([]byte, 4*n)
	// post serves src at precision p over /v1/evalbin and counts the
	// elements that differ from want.
	post := func(f rlibm.Func, p rlibm.Precision, src, want []float32) (mism int64) {
		for i, x := range src {
			binary.LittleEndian.PutUint32(frame[4*i:], math.Float32bits(x))
		}
		url := fmt.Sprintf("%s/v1/evalbin/%v/%v?prec=%v", base, f, rlibm.EstrinFMA, p)
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(frame[:4*len(src)]))
		if err != nil {
			fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body))
		}
		for i := range src {
			if binary.LittleEndian.Uint32(body[4*i:]) != math.Float32bits(want[i]) {
				mism++
			}
		}
		return mism
	}
	var sink float32
	out := make([]precBenchReport, 0, rlibm.NumPrecisions)
	for _, p := range rlibm.Precisions {
		var nsSum float64
		var mism int64
		rng := rand.New(rand.NewSource(seed)) // identical sweeps per precision
		for _, f := range rlibm.Funcs {
			ev, err := rlibm.New(f, rlibm.EstrinFMA, rlibm.WithPrecision(p))
			if err != nil {
				fatal(err)
			}
			fillSweep32(src, f, rng)
			mask := precInputMask(p)
			if mask != 0 {
				// The untimed off-grid frame: the sweep before truncation.
				ev.EvalBatch(dst, src)
				mism += post(f, p, src, dst)
				for i, x := range src {
					src[i] = math.Float32frombits(math.Float32bits(x) &^ mask)
				}
			}
			best := math.Inf(1)
			for r := 0; r < rounds; r++ {
				t0 := time.Now()
				ev.EvalBatch(dst, src)
				if ns := time.Since(t0).Seconds() * 1e9 / float64(n); ns < best {
					best = ns
				}
				sink += dst[0]
			}
			nsSum += best
			mism += post(f, p, src, dst)
		}
		out = append(out, precBenchReport{
			Prec:       p.String(),
			NsPerElem:  nsSum / float64(len(rlibm.Funcs)),
			Mismatches: mism,
		})
	}
	if sink == 42 { // defeat dead-code elimination
		fmt.Fprint(os.Stderr, "")
	}
	var total int64
	for i := range out {
		out[i].SpeedupVsFull = out[0].NsPerElem / out[i].NsPerElem
		total += out[i].Mismatches
		fmt.Printf("    %-8s %6.2f ns/elem  (%.2fx vs float32)\n",
			out[i].Prec, out[i].NsPerElem, out[i].SpeedupVsFull)
	}
	if total != 0 {
		fmt.Fprintf(os.Stderr, "rlibm-bench: %d served ?prec= elements not bit-identical to the Evaluator\n", total)
		os.Exit(1)
	}
	fmt.Println("    all served ?prec= responses bit-identical to the Evaluator: ok")

	shutdown()
	var canary *canaryTotals
	if canaryRate > 0 {
		snap := reg.Snapshot()
		canary = &canaryTotals{
			Checked:  snap.Counter("serve.canary.checked_total"),
			Mismatch: snap.Counter("serve.canary.mismatch_total"),
			Dropped:  snap.Counter("serve.canary.dropped_total"),
			Skipped:  snap.Counter("serve.canary.skipped_total"),
		}
		fmt.Printf("    mixed-precision canary: checked %d, mismatched %d, dropped %d, skipped %d\n",
			canary.Checked, canary.Mismatch, canary.Dropped, canary.Skipped)
		if canary.Mismatch != 0 {
			fmt.Fprintf(os.Stderr, "rlibm-bench: mixed-precision canary found %d served elements not matching the oracle\n", canary.Mismatch)
			os.Exit(1)
		}
		if canary.Checked == 0 {
			fmt.Fprintln(os.Stderr, "rlibm-bench: mixed-precision canary enabled but checked nothing")
			os.Exit(1)
		}
	}
	return out, canary
}

// benchCombos is the round-robin order of all 24 func x scheme pairs.
func benchCombos() (out []struct {
	f rlibm.Func
	s rlibm.Scheme
}) {
	for _, f := range rlibm.Funcs {
		for _, s := range rlibm.Schemes {
			out = append(out, struct {
				f rlibm.Func
				s rlibm.Scheme
			}{f, s})
		}
	}
	return out
}

// smallBenchConfig is the server shape for the small-request workloads:
// coalescing on with a short flush window, and queues generous enough that
// the bench measures throughput, not shedding policy (overload behaviour has
// its own tests in internal/serve).
func smallBenchConfig(elemsPerReq int) serve.Config {
	return serve.Config{
		MaxBatch:           1 << 20,
		CoalesceMaxRequest: elemsPerReq,
		CoalesceFlushElems: 1 << 13,
		CoalesceMaxDelay:   200 * time.Microsecond,
		MaxPendingElems:    1 << 20,
		Registry:           obs.NewRegistry(),
		Log:                obs.NewLogger(io.Discard, obs.LevelQuiet),
	}
}

// benchSmallRequests drives the many-small-requests workload over both
// transports against one server and reports the aggregate-throughput ratio.
// Fleet traffic is many outstanding requests at once, so the client count is
// deliberately high (8x the big-batch bench): coalescing only amortizes
// per-sweep cost when flush windows actually gather multiple requests.
func benchSmallRequests(clients, reqsPerClient, elemsPerReq int, seed int64) *smallReqReport {
	clients *= 8
	fmt.Printf("  small requests: %d clients x %d requests, %d elems/request\n",
		clients, reqsPerClient, elemsPerReq)

	cfg := smallBenchConfig(elemsPerReq)
	srv := serve.New(cfg)
	defer srv.Close()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve(ctx, httpLn) }()
	go func() { serveErr <- srv.ServeStream(ctx, streamLn) }()
	defer func() {
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-serveErr; err != nil {
				fatal(err)
			}
		}
	}()

	base := "http://" + httpLn.Addr().String()
	combos := benchCombos()

	// Workers record every response; verification runs after the clock stops
	// so both transports are timed on transport alone. Inputs regenerate from
	// the same seeded rng during the verify pass.
	results := make([][]float32, clients)
	for c := range results {
		results[c] = make([]float32, reqsPerClient*elemsPerReq)
	}
	run := func(worker func(c int, rng *rand.Rand, out []float32)) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				worker(c, rand.New(rand.NewSource(seed+int64(c))), results[c])
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	var mismatches atomic.Int64
	verifyAll := func() {
		src := make([]float32, elemsPerReq)
		for c := 0; c < clients; c++ {
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for r := 0; r < reqsPerClient; r++ {
				cb := combos[(c+r)%len(combos)]
				fillSweep32(src, cb.f, rng)
				k := kernelFor(cb.f, cb.s)
				got := results[c][r*elemsPerReq : (r+1)*elemsPerReq]
				for i, x := range src {
					if math.Float32bits(got[i]) != math.Float32bits(float32(k(float64(x)))) {
						mismatches.Add(1)
					}
				}
			}
		}
	}

	// HTTP-per-request baseline: one POST on the binary endpoint per small
	// batch. One shared pooled transport: without MaxIdleConnsPerHost >=
	// clients the default pool (2) would make the baseline open fresh TCP
	// conns under load — the comparison is against keep-alive HTTP done well.
	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	httpElapsed := run(func(c int, rng *rand.Rand, out []float32) {
		src := make([]float32, elemsPerReq)
		frame := make([]byte, 4*elemsPerReq)
		for r := 0; r < reqsPerClient; r++ {
			cb := combos[(c+r)%len(combos)]
			fillSweep32(src, cb.f, rng)
			for i, x := range src {
				binary.LittleEndian.PutUint32(frame[4*i:], math.Float32bits(x))
			}
			url := fmt.Sprintf("%s/v1/evalbin/%v/%v", base, cb.f, cb.s)
			resp, err := httpClient.Post(url, "application/octet-stream", bytes.NewReader(frame))
			if err != nil {
				fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				fatal(fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body))
			}
			got := out[r*elemsPerReq : (r+1)*elemsPerReq]
			for i := range got {
				got[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
			}
		}
	})
	verifyAll()

	// Coalesced streaming: persistent connections shared by several request
	// goroutines (the fleet shape — many requesters per conn), frames
	// multiplexed by id, the server coalescing across all of them, and both
	// directions batching wire writes while traffic is in flight.
	const goroutinesPerConn = 8
	scs := make([]*serve.StreamClient, (clients+goroutinesPerConn-1)/goroutinesPerConn)
	for i := range scs {
		sc, err := serve.DialStream(streamLn.Addr().String())
		if err != nil {
			fatal(err)
		}
		scs[i] = sc
		defer sc.Close()
	}
	streamElapsed := run(func(c int, rng *rand.Rand, out []float32) {
		sc := scs[c/goroutinesPerConn]
		src := make([]float32, elemsPerReq)
		for r := 0; r < reqsPerClient; r++ {
			cb := combos[(c+r)%len(combos)]
			fillSweep32(src, cb.f, rng)
			if err := sc.Eval(cb.f, cb.s, out[r*elemsPerReq:(r+1)*elemsPerReq], src); err != nil {
				fatal(err)
			}
		}
	})
	verifyAll()

	requests := clients * reqsPerClient
	elems := float64(requests) * float64(elemsPerReq)
	rep := &smallReqReport{
		Clients:           clients,
		ReqPerCli:         reqsPerClient,
		ElemsPerReq:       elemsPerReq,
		Mismatches:        mismatches.Load(),
		HTTPDurationMs:    httpElapsed.Seconds() * 1e3,
		HTTPReqPerSec:     float64(requests) / httpElapsed.Seconds(),
		HTTPMelemPerSec:   elems / httpElapsed.Seconds() / 1e6,
		StreamDurationMs:  streamElapsed.Seconds() * 1e3,
		StreamReqPerSec:   float64(requests) / streamElapsed.Seconds(),
		StreamMelemPerSec: elems / streamElapsed.Seconds() / 1e6,
	}
	rep.SpeedupX = rep.StreamMelemPerSec / rep.HTTPMelemPerSec
	rep.PhaseMeanUs = phaseMeans(cfg.Registry.Snapshot())
	fmt.Printf("    http-per-request: %8.0f req/s  %6.2f Melem/s\n", rep.HTTPReqPerSec, rep.HTTPMelemPerSec)
	fmt.Printf("    coalesced stream: %8.0f req/s  %6.2f Melem/s  (%.2fx)\n",
		rep.StreamReqPerSec, rep.StreamMelemPerSec, rep.SpeedupX)
	if pm := rep.PhaseMeanUs; len(pm) > 0 {
		fmt.Printf("    phase breakdown (mean): decode %.1f us | queue %.1f us | sweep %.1f us | encode %.1f us\n",
			pm["decode"], pm["queue"], pm["sweep"], pm["encode"])
	}
	if rep.Mismatches != 0 {
		fmt.Fprintf(os.Stderr, "rlibm-bench: %d small-request responses not bit-identical\n", rep.Mismatches)
		os.Exit(1)
	}
	fmt.Println("    all small-request responses bit-identical: ok")
	return rep
}

// benchReplicas runs the round-robin fleet mode: replicas in-process servers
// with their own registries and stream listeners, clients spread across them
// round-robin, throughput aggregated across the fleet.
func benchReplicas(replicas, clients, reqsPerClient, elemsPerReq int, seed int64) *replicaBenchReport {
	fmt.Printf("  replicas: %d servers, %d clients round-robin, %d x %d elems\n",
		replicas, clients, reqsPerClient, elemsPerReq)

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, replicas)
	addrs := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srv := serve.New(smallBenchConfig(elemsPerReq))
		go func() { serveErr <- srv.ServeStream(ctx, ln) }()
	}
	defer func() {
		cancel()
		for i := 0; i < replicas; i++ {
			if err := <-serveErr; err != nil {
				fatal(err)
			}
		}
	}()

	combos := benchCombos()
	var mismatches atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc, err := serve.DialStream(addrs[c%len(addrs)])
			if err != nil {
				fatal(err)
			}
			defer sc.Close()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			src := make([]float32, elemsPerReq)
			dst := make([]float32, elemsPerReq)
			for r := 0; r < reqsPerClient; r++ {
				cb := combos[(c+r)%len(combos)]
				fillSweep32(src, cb.f, rng)
				if err := sc.Eval(cb.f, cb.s, dst, src); err != nil {
					fatal(err)
				}
				k := kernelFor(cb.f, cb.s)
				for i, x := range src {
					if math.Float32bits(dst[i]) != math.Float32bits(float32(k(float64(x)))) {
						mismatches.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	requests := clients * reqsPerClient
	rep := &replicaBenchReport{
		Replicas:       replicas,
		Clients:        clients,
		ReqPerCli:      reqsPerClient,
		ElemsPerReq:    elemsPerReq,
		Mismatches:     mismatches.Load(),
		DurationMs:     elapsed.Seconds() * 1e3,
		AggReqPerSec:   float64(requests) / elapsed.Seconds(),
		AggMelemPerSec: float64(requests) * float64(elemsPerReq) / elapsed.Seconds() / 1e6,
	}
	fmt.Printf("    aggregate: %8.0f req/s  %6.2f Melem/s across %d replicas\n",
		rep.AggReqPerSec, rep.AggMelemPerSec, replicas)
	if rep.Mismatches != 0 {
		fmt.Fprintf(os.Stderr, "rlibm-bench: %d replica responses not bit-identical\n", rep.Mismatches)
		os.Exit(1)
	}
	fmt.Println("    all replica responses bit-identical: ok")
	return rep
}

// precInputMask is the float32 significand mask that truncates an input
// onto the precision's representable grid (0 for full precision: every
// float32 is its own input).
func precInputMask(p rlibm.Precision) uint32 {
	switch p {
	case rlibm.PrecTF32:
		return 1<<13 - 1
	case rlibm.PrecBfloat16:
		return 1<<16 - 1
	}
	return 0
}

// fillSweep32 draws float32 inputs from the function's polynomial-path
// domain (the same ranges makeSweep uses) so the load measures kernel
// evaluation, not special-case plateaus.
func fillSweep32(dst []float32, f rlibm.Func, rng *rand.Rand) {
	for i := range dst {
		switch f {
		case rlibm.FuncExp:
			dst[i] = float32(rng.Float64()*176 - 87)
		case rlibm.FuncExp2:
			dst[i] = float32(rng.Float64()*252 - 126)
		case rlibm.FuncExp10:
			dst[i] = float32(rng.Float64()*76 - 38)
		default: // logarithms: positive values across the full binade range
			dst[i] = float32(math.Ldexp(1+rng.Float64(), rng.Intn(252)-126))
		}
	}
}
