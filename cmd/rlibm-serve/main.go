// Command rlibm-serve exposes the generated correctly rounded elementary
// functions as a batched evaluation service (see internal/serve for the
// endpoint and protocol contracts): an HTTP API on -addr and a
// persistent-connection streaming binary protocol on -stream-addr. Small
// requests from either transport coalesce into shared batch sweeps; bounded
// queues shed excess load with typed 429 / overloaded responses.
//
// Usage:
//
//	rlibm-serve [-addr :8090] [-stream-addr :8091] [-max-batch 1048576]
//	            [-coalesce-max-request 4096] [-coalesce-flush 32768]
//	            [-coalesce-delay 500us] [-max-pending 131072]
//	            [-max-inflight N] [-stream-window 128]
//	            [-read-timeout 10s] [-write-timeout 30s] [-drain-timeout 10s]
//	            [-trace-sample 0.01] [-canary-sample 0.001] [-canary-queue 1024]
//	            [-pprof] [-j 4] [-v|-q] [-trace trace.jsonl]
//
// Examples:
//
//	rlibm-serve -addr :8090 -stream-addr :8091 &
//	curl -s localhost:8090/healthz
//	curl -s -X POST localhost:8090/v1/eval/log2/rlibm-estrin-fma -d '{"x":[1,2,8]}'
//	curl -s localhost:8090/metricz          # Prometheus text exposition
//
// The server drains in-flight requests on both listeners on SIGINT/SIGTERM
// (bounded by -drain-timeout) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rlibm/internal/cliflags"
	"rlibm/internal/obs"
	"rlibm/internal/serve"
	"rlibm/pkg/rlibm"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "HTTP listen address")
		streamAddr   = flag.String("stream-addr", ":8091", "streaming binary protocol listen address (\"none\" disables)")
		maxBatch     = flag.Int("max-batch", 1<<20, "maximum elements per request")
		coalesceMax  = flag.Int("coalesce-max-request", 4096, "largest request that joins a coalesced sweep (negative disables coalescing)")
		flushElems   = flag.Int("coalesce-flush", 1<<15, "queued elements that trigger an immediate coalesced flush")
		flushDelay   = flag.Duration("coalesce-delay", 500*time.Microsecond, "longest a queued request waits before the accumulator flushes")
		maxPending   = flag.Int("max-pending", 0, "per-(func,scheme) coalescer queue bound in elements before shedding (0 = 4x flush)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent direct (non-coalesced) sweeps before shedding (0 = 4x GOMAXPROCS)")
		streamWindow = flag.Int("stream-window", 128, "in-flight requests per stream connection before reads pause")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "per-request read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-request write timeout")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceSample  = flag.Float64("trace-sample", 0, "fraction of eval requests emitting per-phase trace spans (needs -trace; 0 disables, 1 traces all)")
		canarySample = flag.Float64("canary-sample", 0, "fraction of served elements re-verified against the oracle in the background (0 disables the canary)")
		canaryQueue  = flag.Int("canary-queue", 1024, "pending canary verifications before new samples are dropped")
		backendName  = flag.String("backend", "auto", "batch-kernel backend: auto, go, vector, or asm (auto picks the fastest available; all are bit-identical)")
		opts         = cliflags.Register(flag.CommandLine)
	)
	flag.Parse()

	backend, err := rlibm.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}
	if !backend.Available() {
		fatal(fmt.Errorf("rlibm-serve: backend %q is not available on this machine", backend))
	}

	run, err := opts.Start()
	if err != nil {
		fatal(err)
	}
	defer run.Close()

	// One parallelism budget: -j caps both request handling fan-out inside a
	// batch call and anything else pkg/rlibm parallelizes. WorkerCount
	// resolves the flag's 0-means-GOMAXPROCS convention; SetMaxBatchWorkers
	// itself rejects non-positive caps.
	rlibm.SetMaxBatchWorkers(opts.WorkerCount())

	srv := serve.New(serve.Config{
		Addr:               *addr,
		StreamAddr:         *streamAddr,
		MaxBatch:           *maxBatch,
		CoalesceMaxRequest: *coalesceMax,
		CoalesceFlushElems: *flushElems,
		CoalesceMaxDelay:   *flushDelay,
		MaxPendingElems:    *maxPending,
		MaxInflightBatches: *maxInflight,
		StreamWindow:       *streamWindow,
		ReadTimeout:        *readTimeout,
		WriteTimeout:       *writeTimeout,
		DrainTimeout:       *drainTimeout,
		Log:                run.Log,
		Registry:           obs.Default(),
		Tracer:             run.Tracer,
		TraceSample:        *traceSample,
		CanarySample:       *canarySample,
		CanaryQueue:        *canaryQueue,
		EnablePprof:        *pprofFlag,
		Backend:            backend,
	})
	defer srv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Both listeners share the signal context and drain concurrently on
	// shutdown; either one failing to serve takes the process down.
	errc := make(chan error, 2)
	n := 1
	go func() { errc <- srv.ListenAndServe(ctx) }()
	if *streamAddr != "none" && *streamAddr != "" {
		n++
		go func() { errc <- srv.ListenAndServeStream(ctx) }()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			stop() // tear the other listener down before exiting
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlibm-serve:", err)
	os.Exit(1)
}
