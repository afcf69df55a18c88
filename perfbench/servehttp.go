package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// httpSizes are the serve_http_bulk request sizes, the two regimes the
// workload must cover: twice the server's default 4096-element coalescing
// limit, so direct but not fanned out, and 1.5 times pkg/rlibm's 32Ki
// batch fan-out threshold.
var httpSizes = []int{8192, 49152}

const (
	httpTemplates = 24
	serverProcs   = 1 // the server's GOMAXPROCS
)

// httpTemplate is one pre-encoded bulk request with its expected answer.
type httpTemplate struct {
	url   string
	json  bool
	elems int
	body  []byte
	want  []float32
	// wantBody is the response body known to be correct: the expected
	// binary frame, or for JSON the warm-up response once it has been
	// parsed and checked value by value.
	wantBody []byte
}

// newHTTPTemplates covers every (func, scheme) pair once, with precisions
// and sizes rotating and every fourth request JSON; the seed draws only
// the inputs, so every seed has the same mix of work.
func newHTTPTemplates(addr string, rng *rand.Rand) []*httpTemplate {
	var out []*httpTemplate
	for i := 0; i < httpTemplates; i++ {
		l := lane{rlibm.Funcs[i%rlibm.NumFuncs], rlibm.Schemes[i/rlibm.NumFuncs], rlibm.Precisions[(i/2)%rlibm.NumPrecisions]}
		n := httpSizes[(i/3)%len(httpSizes)]
		src := kernelInputs(l.f, l.p, n, rng)
		t := &httpTemplate{json: i%4 == 3, elems: n, want: reference(l, src)}
		path := fmt.Sprintf("/v1/evalbin/%v/%v?prec=%v", l.f, schemeNames[l.s], l.p)
		if t.json {
			path = fmt.Sprintf("/v1/eval/%v/%v", l.f, schemeNames[l.s])
			t.body = jsonRequest(src, l.p)
		} else {
			t.body = f32Bytes(src)
			t.wantBody = f32Bytes(t.want)
		}
		t.url = "http://" + addr + path
		out = append(out, t)
	}
	return out
}

func jsonRequest(src []float32, p rlibm.Precision) []byte {
	b := []byte(`{"x":[`)
	for i, x := range src {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, `],"prec":"`+p.String()+`"}`...)
}

// jsonMatches parses a {"y":[...]} body and compares every value with
// want bit for bit; the server spells NaN and infinities as strings.
func jsonMatches(body []byte, want []float32) bool {
	lo, hi := bytes.IndexByte(body, '['), bytes.LastIndexByte(body, ']')
	if lo < 0 || hi < lo {
		return false
	}
	toks := bytes.Split(body[lo+1:hi], []byte{','})
	if len(toks) != len(want) {
		return false
	}
	for i, tok := range toks {
		var v float32
		switch s := string(bytes.TrimSpace(tok)); s {
		case `"NaN"`:
			v = float32(math.NaN())
		case `"Inf"`:
			v = float32(math.Inf(1))
		case `"-Inf"`:
			v = float32(math.Inf(-1))
		default:
			f, err := strconv.ParseFloat(s, 32)
			if err != nil {
				return false
			}
			v = float32(f)
		}
		if math.Float32bits(v) != math.Float32bits(want[i]) && !(v != v && want[i] != want[i]) {
			return false
		}
	}
	return true
}

// httpResult is one request as the client saw it.
type httpResult struct {
	tmpl       int
	start, end time.Time
	kind       uint8
}

// do sends t once and classifies the answer.
func (t *httpTemplate) do(client *http.Client, trace uint64, buf *bytes.Buffer) (kind uint8) {
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(t.body))
	if err != nil {
		return outError
	}
	if trace != 0 {
		req.Header.Set(obs.TraceHeader, obs.TraceID(trace).String())
	}
	resp, err := client.Do(req)
	if err != nil {
		return outError
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return outError
	case resp.StatusCode == http.StatusTooManyRequests:
		return outShed
	case resp.StatusCode != http.StatusOK:
		return outError
	case t.wantBody != nil && bytes.Equal(buf.Bytes(), t.wantBody):
		return outOK
	case t.json && jsonMatches(buf.Bytes(), t.want):
		return outOK
	}
	return outMismatch
}

// runServeHTTP is the serve_http_bulk workload: a closed loop of two HTTP
// clients sending large requests over /v1/evalbin and /v1/eval to an
// rlibm-serve process.
func runServeHTTP(e *env, seconds float64, tr *recorder) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.Seed))
	spawns := 15
	if e.Probe {
		spawns = 1
	}
	tracePath := ""
	if tr != nil {
		tracePath = filepath.Join(e.OutDir, fmt.Sprintf("serve-trace-http-%d.jsonl", time.Now().UnixNano()))
	}
	// The server runs on one P, for the reason the client loop below gives.
	// Requests above the fan-out threshold then run on one worker: the
	// fan-out itself is measured in-process (rlibm.batch_ns_per_elem.n1Mi).
	srv, setupTimes, rss, err := startMeasured(e, spawns, tracePath, serverProcs, rng, &rep.Tally)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep.Checks["server_gomaxprocs"] = serverProcs
	templates := newHTTPTemplates(srv.httpAddr, rng)
	client := &http.Client{Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()

	// Warm-up: every template once. A JSON answer is checked value by value
	// here, outside the clock; once one is right, later answers need only
	// repeat it byte for byte.
	var buf bytes.Buffer
	for _, t := range templates {
		kind := t.do(client, 0, &buf)
		rep.Tally.add(outcomeTally(kind))
		if kind == outOK && t.json {
			t.wantBody = append([]byte(nil), buf.Bytes()...)
		}
	}

	before, err := srv.metricz()
	if err != nil {
		return nil, err
	}
	// One client walks one seeded order of the templates, so every run
	// sends the same mix of work. A second client, or a second P in the
	// server, keeps both vCPUs busy, and the figures then follow how much
	// of the second one a shared host grants, which roughly doubled the
	// spread between runs (README.md).
	order := rng.Perm(len(templates))
	window := time.Duration(seconds * 0.85 * float64(time.Second))
	start := time.Now()
	deadline := start.Add(window)
	var results []httpResult
	for n := 0; time.Now().Before(deadline); n++ {
		ti := order[n%len(order)]
		trace := uint64(0)
		if tr != nil {
			trace = httpTraceID(e.Seed, n)
		}
		r := httpResult{tmpl: ti, start: time.Now()}
		r.kind = templates[ti].do(client, trace, &buf)
		r.end = time.Now()
		results = append(results, r)
	}
	after, err := srv.metricz()
	if err != nil {
		return nil, err
	}

	var lat []float64
	perTemplate := make([][]float64, len(templates))
	for _, r := range results {
		rep.Tally.add(outcomeTally(r.kind))
		if r.kind == outOK {
			lat = append(lat, us(r.end.Sub(r.start)))
			perTemplate[r.tmpl] = append(perTemplate[r.tmpl], lat[len(lat)-1])
		}
	}
	d := rep.dist("http_latency_us", lat)
	// The request sizes and codecs make latency multimodal, so the
	// reported median is per template, averaged over the templates: a
	// shift of a few requests between modes cannot move it. A geometric
	// mean weighted the 8192-element binary requests, which are mostly
	// thread wake-ups and system calls, as much as the rest, and spread
	// twice as wide between runs.
	var meds []float64
	for i, l := range perTemplate {
		meds = append(meds, rep.dist(fmt.Sprintf("http_latency_us.template%d", i), l).P50)
	}
	p50 := 0.0
	for _, m := range meds {
		p50 += m / float64(len(meds))
	}
	// Throughput is one pass over the templates, each at its median
	// latency. A rate over time windows took every stall of the shared
	// host in full, and its spread between runs was up to four times the
	// medians'; the stalls show in http_p99_ms.
	passElems, passUs := 0.0, 0.0
	for i, m := range meds {
		passElems += float64(templates[i].elems)
		passUs += m
	}
	throughput := passElems / passUs * 1e6
	setup := rep.dist("setup_s", setupTimes)
	rep.named("http_melem_per_s", "Melem/s", throughput/1e6, nil)
	rep.named("http_p50_ms", "ms", p50/1e3, nil)
	rep.named("http_p99_ms", "ms", d.Tail/1e3, d)
	rep.named("failed_ratio", "ratio", rep.Tally.ratio(), nil)
	rep.e2e(mLatP50, "us", p50, nil)
	rep.e2e(mThroughput, "1/s", throughput, nil)
	rep.e2e(mSetup, "s", setup.P50, setup)
	rep.e2e(mRSS, "MiB", rss, nil)
	if tr == nil {
		return rep, nil
	}

	for p, v := range phaseMeansUs(before, after) {
		rep.layer("serve.http.phase_us."+p, "us", v)
	}
	rep.layer("serve.shed_ratio", "ratio", shedRatio(before, after))
	rep.layer(lP99, "us", d.Tail)
	byTrace, err := readServerSpans(srv, tracePath)
	if err != nil {
		return nil, err
	}
	var spans []clientSpan
	for n, r := range results {
		if r.kind == outOK {
			spans = append(spans, clientSpan{trace: httpTraceID(e.Seed, n), start: r.start, end: r.end})
		}
	}
	self, err := joinServerSpans(tr, "client.http.request", spans, byTrace)
	if err != nil {
		return nil, err
	}
	rep.layer("client.self_us.http", "us", self)
	return rep, nil
}

// httpTraceID is the X-Trace-Id of the n-th request.
func httpTraceID(seed int64, n int) uint64 { return uint64(seed)<<32 | uint64(n+1) }
