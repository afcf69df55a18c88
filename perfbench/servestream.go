package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	// streamNominalRate is the request rate at which stream latency is
	// reported: well below the 2-core box's capacity, high enough that the
	// CPUs do not idle into slow wake-ups between requests.
	streamNominalRate = 8000.0
	// streamWindow is how many requests each connection keeps in flight in
	// the saturated segment, a closed loop: twice the server's default
	// StreamWindow (128), so that while the server holds a full window of
	// requests, most of another waits in its socket and it never waits on
	// the client. On the 2-vCPU reference VM a window of 128 reached only
	// 76-84k req/s, so the server waited on the client; 256 reached
	// 93-152k across runs, and 512 and 1024 119-178k, no steadier.
	streamWindow = 256
	// templatesPerLane is how many distinct 64-element requests each lane
	// cycles through.
	templatesPerLane = 4
	// zipfS is the skew of lane popularity: rank r has weight 1/r^zipfS.
	zipfS = 1.1
)

// streamLoad is the serve_stream traffic: 72 lanes under a seeded skewed
// popularity, a few pre-encoded 64-element requests per lane.
type streamLoad struct {
	templates []streamTemplate
	cum       []float64 // cumulative lane popularity, by lane index
}

func newStreamLoad(rng *rand.Rand) *streamLoad {
	lanes := allLanes()
	perm := rng.Perm(len(lanes))
	weights := make([]float64, len(lanes))
	for rank, li := range perm {
		weights[li] = 1 / math.Pow(float64(rank+1), zipfS)
	}
	sl := &streamLoad{}
	total := 0.0
	for li, l := range lanes {
		total += weights[li]
		sl.cum = append(sl.cum, total)
		for k := 0; k < templatesPerLane; k++ {
			sl.templates = append(sl.templates, newStreamTemplate(l, kernelInputs(l.f, l.p, smallBatch, rng)))
		}
	}
	for i := range sl.cum {
		sl.cum[i] /= total
	}
	return sl
}

func (sl *streamLoad) pick(rng *rand.Rand) int32 {
	li := sort.SearchFloat64s(sl.cum, rng.Float64())
	if li >= len(sl.cum) {
		li = len(sl.cum) - 1
	}
	return int32(li*templatesPerLane + rng.Intn(templatesPerLane))
}

// streamConns is how many stream connections the load uses: no more than
// the box's 2 cores.
const streamConns = 2

// dialStream opens the load's stream connections to srv.
func dialStream(srv *server) ([]net.Conn, error) {
	var conns []net.Conn
	for i := 0; i < streamConns; i++ {
		c, err := net.Dial("tcp", srv.streamAddr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// openLoop runs one open-loop segment at rate for d against srv.
func (sl *streamLoad) openLoop(srv *server, rng *rand.Rand, rate float64, d time.Duration, traceBase uint64) ([]plannedReq, []outcome, time.Time, error) {
	reqs := poissonPlan(rng, rate, d, sl.pick)
	conns, err := dialStream(srv)
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	outs, start := runOpenLoop(conns, sl.templates, reqs, traceBase, 2*time.Second)
	return reqs, outs, start, nil
}

// pollQueue samples the server's coalescer queue gauge at 20 Hz until stop
// is closed and returns the largest value seen.
func pollQueue(srv *server, stop <-chan struct{}) int64 {
	var peak int64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
			if m, err := srv.metricz(); err == nil {
				peak = max(peak, m.Gauges["serve.coalesce.queue_elems"])
			}
		}
	}
}

// runServeStream is the serve_stream workload: an open loop of 64-element
// requests over two stream connections to an rlibm-serve process, first at
// the nominal rate for latency, then a closed loop with a fixed number of
// requests in flight for the completion rate the box sustains.
func runServeStream(e *env, seconds float64, tr *recorder) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.Seed))
	sl := newStreamLoad(rng)
	spawns := 15
	if e.Probe {
		spawns = 1
	}
	tracePath := ""
	if tr != nil {
		tracePath = filepath.Join(e.OutDir, fmt.Sprintf("serve-trace-stream-%d.jsonl", time.Now().UnixNano()))
	}
	srv, setupTimes, rss, err := startMeasured(e, spawns, tracePath, 0, rng, &rep.Tally)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	wreqs, wouts, _, err := sl.openLoop(srv, rng, streamNominalRate, 250*time.Millisecond, 0)
	if err != nil {
		return nil, err
	}
	rep.Tally.add(summarizeLoop(wreqs, wouts).tally)
	nominal := time.Duration(seconds * 0.4 * float64(time.Second))
	if e.Traced {
		nominal = time.Duration(seconds * 0.9 * float64(time.Second))
	}
	before, err := srv.metricz()
	if err != nil {
		return nil, err
	}
	// The queue gauge is sampled only on traced passes: the scrapes are
	// load on the server.
	stop := make(chan struct{})
	var queueMax int64
	var wg sync.WaitGroup
	if tr != nil {
		wg.Add(1)
		go func() { defer wg.Done(); queueMax = pollQueue(srv, stop) }()
	}
	traceBase := uint64(0)
	if tr != nil {
		traceBase = uint64(e.Seed)<<32 | 1
	}
	reqs, outs, loopStart, err := sl.openLoop(srv, rng, streamNominalRate, nominal, traceBase)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	after, err := srv.metricz()
	if err != nil {
		return nil, err
	}
	st := summarizeLoop(reqs, outs)
	rep.Tally.add(st.tally)
	lat := rep.dist("stream_latency_us", st.latUs)
	late := rep.dist("client_late_us", st.lateUs)
	rep.named("stream_p50_us", "us", lat.P50, lat)
	rep.named("stream_p99_us", "us", lat.Tail, lat)
	rep.named("client_late_us_p99", "us", late.Tail, late)

	// The saturated segment runs only on untraced passes: its trace would
	// be the largest file of the run and its numbers feed no per-layer
	// metric.
	saturated := 0.0
	if !e.Traced {
		conns, err := dialStream(srv)
		if err != nil {
			return nil, err
		}
		d := time.Duration(seconds * 0.45 * float64(time.Second))
		cst := runClosedStream(conns, sl.templates, sl.pick, e.Seed, streamWindow, d, 2*time.Second)
		rep.Tally.add(cst.tally)
		ones := make([]float64, len(cst.done))
		for i := range ones {
			ones[i] = 1
		}
		// Completions per 100 ms window, leaving out the first and last
		// tenth of the loop.
		windows := windowRates(cst.done, ones, d/10, d*9/10, 100*time.Millisecond)
		dist := rep.dist("stream_saturated_rps", windows)
		saturated = interquartileMean(windows)
		rep.named("stream_saturated_rps", "1/s", saturated, dist)
	}

	setup := rep.dist("setup_s", setupTimes)
	rep.e2e(mLatP50, "us", lat.P50, lat)
	rep.e2e(mThroughput, "1/s", saturated, nil)
	rep.e2e(mSetup, "s", setup.P50, setup)
	rep.e2e(mRSS, "MiB", rss, nil)
	rep.named("failed_ratio", "ratio", rep.Tally.ratio(), nil)
	if tr == nil {
		return rep, nil
	}

	for p, v := range phaseMeansUs(before, after) {
		rep.layer("serve.stream.phase_us."+p, "us", v)
	}
	fn, fsum := histDelta(before, after, "serve.coalesce.flush_elems")
	flushes := after.Counters["serve.coalesce.flushes"] - before.Counters["serve.coalesce.flushes"]
	coalesced := after.Counters["serve.coalesce.requests"] - before.Counters["serve.coalesce.requests"]
	rep.layer("serve.coalesce.flush_elems_mean", "elems", float64(fsum)/float64(max(fn, 1)))
	rep.layer("serve.coalesce.flushes_per_request", "ratio", float64(flushes)/float64(max(coalesced, 1)))
	rep.layer("serve.shed_ratio", "ratio", shedRatio(before, after))
	rep.layer("serve.queue_elems_max", "elems", float64(queueMax))
	rep.layer("client.late_us_p99", "us", late.Tail)
	rep.layer(lP99, "us", lat.Tail)

	byTrace, err := readServerSpans(srv, tracePath)
	if err != nil {
		return nil, err
	}
	var spans []clientSpan
	for i, o := range outs {
		if o.kind == outOK {
			spans = append(spans, clientSpan{trace: traceBase + uint64(i),
				start: loopStart.Add(o.sent), end: loopStart.Add(o.done)})
		}
	}
	self, err := joinServerSpans(tr, "client.stream.request", spans, byTrace)
	if err != nil {
		return nil, err
	}
	rep.layer("client.self_us.stream", "us", self)
	return rep, nil
}

// shedRatio is shed requests over all requests the server answered
// between two snapshots.
func shedRatio(a, b *metrics) float64 {
	shed := b.Counters["serve.shed_total"] - a.Counters["serve.shed_total"]
	served := b.Counters["serve.eval.requests_total"] - a.Counters["serve.eval.requests_total"]
	if shed+served == 0 {
		return 0
	}
	return float64(shed) / float64(shed+served)
}
