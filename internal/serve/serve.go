// Package serve implements the rlibm evaluation service: batched correctly
// rounded elementary functions over pkg/rlibm, behind two transports that
// share one evaluation core — an HTTP API (JSON and compact binary
// endpoints) and a persistent-connection streaming binary protocol
// (length-prefixed frames over one TCP conn, see stream.go). The core
// coalesces small requests across connections into shared EvalBatch sweeps
// (see coalesce.go), bounds its queues, and sheds excess load with typed
// backpressure errors (HTTP 429 + Retry-After, stream status overloaded)
// instead of collapsing. Observability flows through internal/obs:
// request/error counters, latency, batch-size and flush-size histograms,
// queue-depth gauges, shed counters, optional trace spans, optional pprof,
// and a Prometheus-text /metricz.
//
// The package is a library so the server can run in-process: cmd/rlibm-serve
// wires it to listeners and signals, the end-to-end tests drive it through
// httptest and loopback conns, and rlibm-bench's -serve-bench mode
// load-tests it over loopback listeners.
//
// Endpoints:
//
//	POST /v1/eval/{func}/{scheme}     JSON  {"x":[...]} -> {"y":[...]}
//	POST /v1/evalbin/{func}/{scheme}  raw little-endian float32 frame in/out
//	GET  /healthz                     liveness probe (reports build identity)
//	GET  /metricz                     Prometheus text (JSON with ?format=json)
//	GET  /statusz                     human-readable status page (latency,
//	                                  shed rate, queue depth, canary health)
//	GET  /debug/pprof/...             when Config.EnablePprof is set
//
// {func} is one of exp, exp2, exp10, log, log2, log10; {scheme} is a
// canonical ("rlibm-estrin-fma") or short ("estrin-fma") scheme name. The
// streaming protocol carries the same func/scheme space as one-byte codes.
package serve

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// Config parameterizes a Server. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe ("" means ":8090").
	Addr string
	// StreamAddr is the listen address for the streaming binary protocol
	// used by ListenAndServeStream ("" means ":8091").
	StreamAddr string
	// MaxBatch caps the number of elements in one request (0 means 1<<20).
	// JSON, binary and stream requests beyond it are rejected with 413 (or
	// the stream's too-large status). The limit is enforced in elements.
	MaxBatch int
	// Backend selects the rlibm batch-kernel backend every evaluator in the
	// process uses. The zero value, rlibm.BackendAuto, resolves to the
	// fastest backend available on the machine. Backend is process-level by
	// design: all backends are bit-identical, so there is nothing to select
	// per request, and the coalescer lanes stay keyed (func, scheme,
	// precision). The resolved backend appears on /statusz and as the
	// serve.backend gauge on /metricz. New panics if the configured backend
	// is not available on this machine (rlibm.Backend.Available reports
	// that; cmd/rlibm-serve checks it at flag parse).
	Backend rlibm.Backend

	// CoalesceMaxRequest: requests with at most this many elements enqueue
	// into the per-(func,scheme) coalescer; larger ones evaluate directly
	// (0 means 4096; negative disables coalescing). Coalescing is adaptive
	// (group commit): an idle accumulator flushes the arriving request
	// immediately, and requests landing while a sweep is being evaluated
	// form the next sweep — no configured delay is ever waited out.
	CoalesceMaxRequest int
	// CoalesceFlushElems caps the elements one coalesced sweep takes from
	// the queue (0 means 1<<15, the batch fan-out regime); whole requests
	// are never split across sweeps.
	CoalesceFlushElems int
	// CoalesceMaxDelay bounds how long a direct (non-coalesced) request
	// waits for an in-flight slot before being shed, and sizes the
	// retry-after hint on 429 responses (0 means 500µs). The adaptive
	// coalescer itself never waits on a timer.
	CoalesceMaxDelay time.Duration
	// MaxPendingElems bounds each (func,scheme) coalescer queue; enqueues
	// beyond it are shed with 429 (0 means 4*CoalesceFlushElems).
	MaxPendingElems int
	// MaxInflightBatches bounds concurrent direct (non-coalesced) sweeps;
	// beyond it requests wait up to CoalesceMaxDelay, then shed with 429
	// (0 means 4*GOMAXPROCS).
	MaxInflightBatches int
	// StreamWindow bounds the in-flight requests one stream connection may
	// have before the server stops reading further frames from it — TCP
	// backpressure rather than shedding (0 means 128).
	StreamWindow int

	// ReadTimeout / WriteTimeout bound each HTTP request's transfer phases
	// (0 means 10s / 30s). Stream connections are persistent: WriteTimeout
	// bounds each response flush, reads block indefinitely between frames.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to complete after the serve context is cancelled (0 means 10s).
	DrainTimeout time.Duration
	// Log receives lifecycle and per-request debug lines (nil means quiet).
	Log *obs.Logger
	// Registry receives the serve.* metrics (nil means obs.Default()).
	Registry *obs.Registry
	// Tracer, when non-nil, gets one span per eval request.
	Tracer *obs.Tracer
	// TraceSample is the fraction of eval requests that additionally emit
	// per-phase child spans (serve.decode/queue/sweep/encode) to Tracer
	// (0 disables phase spans; 1 traces every request). Sampling is a
	// deterministic stride, so a rate of 0.01 traces exactly every 100th
	// request with no per-request randomness.
	TraceSample float64
	// CanarySample is the fraction of served elements the online correctness
	// canary re-verifies against the Ziv oracle in the background (0 disables
	// the canary). Verification runs strictly off the request path: samples
	// queue into a bounded channel and are dropped — never blocked on — when
	// the verifier falls behind.
	CanarySample float64
	// CanaryQueue bounds the canary's pending verification queue (0 means
	// 1024). Samples arriving while it is full are dropped and counted in
	// serve.canary.dropped_total.
	CanaryQueue int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8090"
	}
	if c.StreamAddr == "" {
		c.StreamAddr = ":8091"
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1 << 20
	}
	if c.CoalesceMaxRequest == 0 {
		c.CoalesceMaxRequest = 4096
	}
	if c.CoalesceFlushElems == 0 {
		c.CoalesceFlushElems = 1 << 15
	}
	if c.CoalesceMaxDelay == 0 {
		c.CoalesceMaxDelay = 500 * time.Microsecond
	}
	if c.MaxPendingElems == 0 {
		c.MaxPendingElems = 4 * c.CoalesceFlushElems
	}
	if c.MaxInflightBatches == 0 {
		c.MaxInflightBatches = 4 * runtime.GOMAXPROCS(0)
	}
	if c.StreamWindow == 0 {
		c.StreamWindow = 128
	}
	if c.CanaryQueue == 0 {
		c.CanaryQueue = 1024
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Log == nil {
		c.Log = obs.NewLogger(nil, obs.LevelQuiet)
	}
	return c
}

// Server is the rlibm evaluation service. Create with New; serve HTTP with
// ListenAndServe or Serve, the stream protocol with ListenAndServeStream or
// ServeStream, or embed Handler in a test server.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	batchElems *obs.Histogram
	shedTotal  *obs.Counter
	started    time.Time

	// evals holds one bound Evaluator per (func, scheme, precision) combo —
	// dispatch resolved once at startup; coalescers holds one request
	// accumulator per combo (precision is part of the coalescing key: a
	// sweep runs exactly one kernel); directSem bounds concurrent
	// non-coalesced sweeps.
	evals      [rlibm.NumFuncs][rlibm.NumSchemes][rlibm.NumPrecisions]*rlibm.Evaluator
	coalescers [rlibm.NumFuncs][rlibm.NumSchemes][rlibm.NumPrecisions]*coalescer
	directSem  chan struct{}

	// backend is the resolved batch-kernel backend every evaluator runs —
	// cfg.Backend with BackendAuto resolved against the machine.
	backend rlibm.Backend

	// Request-level observability (see obsreq.go): per-combo phase-latency
	// instruments, the trace-sampling stride, and a total request counter.
	phases       [rlibm.NumFuncs][rlibm.NumSchemes]*phaseSet
	sampler      *sampler
	evalRequests *obs.Counter

	// canary re-verifies sampled served elements in the background
	// (see canary.go); nil when CanarySample is 0.
	canary *canary

	// stream connection bookkeeping (see stream.go).
	streamConns  *obs.Gauge
	streamFrames *obs.Counter
	streamErrors *obs.Counter

	// onEval, when non-nil, runs at the start of every eval request; the
	// drain tests use it to hold requests in flight across a shutdown.
	onEval func()
}

// New builds a Server from cfg (zero value fine; see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		mux:          http.NewServeMux(),
		batchElems:   cfg.Registry.Histogram("serve.batch_elems"),
		shedTotal:    cfg.Registry.Counter("serve.shed_total"),
		started:      time.Now(),
		directSem:    make(chan struct{}, cfg.MaxInflightBatches),
		sampler:      newSampler(cfg.TraceSample),
		evalRequests: cfg.Registry.Counter("serve.eval.requests_total"),
		streamConns:  cfg.Registry.Gauge("serve.stream.conns"),
		streamFrames: cfg.Registry.Counter("serve.stream.frames"),
		streamErrors: cfg.Registry.Counter("serve.stream.errors"),
	}
	if cfg.CoalesceMaxRequest < 0 {
		s.cfg.CoalesceMaxRequest = 0 // nothing coalesces; every request is direct
	}
	for _, f := range rlibm.Funcs {
		for _, sch := range rlibm.Schemes {
			// Phase instruments stay keyed (func, scheme): precision is a
			// property of the request, not a new latency population worth 32
			// more histograms per combo.
			s.phases[f][sch] = newPhaseSet(f, sch, cfg.Registry)
			for _, p := range rlibm.Precisions {
				ev, err := rlibm.New(f, sch, rlibm.WithPrecision(p), rlibm.WithBackend(cfg.Backend))
				if err != nil {
					// Reachable only through a Backend the machine cannot
					// build; cmd/rlibm-serve validates at flag parse.
					panic("serve: " + err.Error())
				}
				s.evals[f][sch][p] = ev
				s.coalescers[f][sch][p] = newCoalescer(ev, s.cfg, cfg.Registry)
			}
		}
	}
	// All evaluators resolved the same process-level backend; record it and
	// export it as a gauge so /metricz scrapes can tell fleets apart by
	// batch-kernel backend (value = rlibm.Backend enum: 1 go, 2 vector,
	// 3 asm — never 0/auto, the gauge holds the resolution).
	s.backend = s.evals[rlibm.FuncExp][rlibm.Horner][rlibm.PrecFloat32].Backend()
	cfg.Registry.Gauge("serve.backend").Set(int64(s.backend))
	if cfg.CanarySample > 0 {
		s.canary = newCanary(s.cfg, cfg.Registry)
	}
	wrap := func(name string, h http.HandlerFunc) http.Handler {
		return obs.HTTPHandler(cfg.Registry, cfg.Tracer, name, h)
	}
	s.mux.Handle("POST /v1/eval/{func}/{scheme}", wrap("serve.eval_json", s.handleEvalJSON))
	s.mux.Handle("POST /v1/evalbin/{func}/{scheme}", wrap("serve.eval_bin", s.handleEvalBin))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the root handler with all routes and middleware installed.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the Server's background resources: it stops the canary
// worker after letting it drain its queued verifications. Safe to call more
// than once; call it after the listeners have stopped.
func (s *Server) Close() {
	if s.canary != nil {
		s.canary.stop()
	}
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up to
// DrainTimeout to complete, and Serve returns once they have (nil) or the
// budget expires (the shutdown error).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.cfg.Log.Infof("serve: listening on %s", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Log.Infof("serve: draining (up to %v)", s.cfg.DrainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx)
	<-errc // always http.ErrServerClosed once Shutdown is in flight
	if err != nil {
		return err
	}
	s.cfg.Log.Infof("serve: drained")
	return nil
}

// ListenAndServe binds cfg.Addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// ServeStream accepts streaming-protocol connections on ln until ctx is
// cancelled, then drains: the listener closes, every connection's read side
// is shut so no new frames arrive, in-flight requests get up to
// DrainTimeout to flush their responses, and stragglers are force-closed.
func (s *Server) ServeStream(ctx context.Context, ln net.Listener) error {
	s.cfg.Log.Infof("serve: stream listening on %s", ln.Addr())
	var (
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
		wg    sync.WaitGroup
	)
	acceptDone := make(chan error, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				acceptDone <- err
				return
			}
			mu.Lock()
			conns[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.serveStreamConn(conn)
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
		}
	}()
	select {
	case err := <-acceptDone:
		return err
	case <-ctx.Done():
	}
	ln.Close()
	<-acceptDone
	s.cfg.Log.Infof("serve: stream draining (up to %v)", s.cfg.DrainTimeout)
	// Stop reading new frames; connections finish their in-flight work and
	// close themselves (idle ones see EOF immediately).
	mu.Lock()
	for c := range conns {
		if tc, ok := c.(interface{ CloseRead() error }); ok {
			tc.CloseRead()
		} else {
			c.SetReadDeadline(time.Now())
		}
	}
	mu.Unlock()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(s.cfg.DrainTimeout):
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		<-finished
	}
	s.cfg.Log.Infof("serve: stream drained")
	return nil
}

// ListenAndServeStream binds cfg.StreamAddr and calls ServeStream.
func (s *Server) ListenAndServeStream(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.StreamAddr)
	if err != nil {
		return err
	}
	return s.ServeStream(ctx, ln)
}
