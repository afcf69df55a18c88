package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rlibm/internal/libm"
	"rlibm/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry() // keep tests off the global registry
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// binEval posts a little-endian float32 frame and returns the decoded reply.
func binEval(t *testing.T, base, fn, scheme string, src []float32) ([]float32, *http.Response) {
	t.Helper()
	body := make([]byte, 4*len(src))
	for i, x := range src {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(x))
	}
	resp, err := http.Post(base+"/v1/evalbin/"+fn+"/"+scheme, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST evalbin: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if out.Len() != 4*len(src) {
		t.Fatalf("binary reply has %d bytes, want %d", out.Len(), 4*len(src))
	}
	got := make([]float32, len(src))
	for i := range got {
		got[i] = math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[4*i:]))
	}
	return got, resp
}

// jsonEval posts {"x":[...]} and decodes {"y":[...]}, using the same string
// encodings of non-finite values in both directions that the server does.
func jsonEval(t *testing.T, base, fn, scheme string, src []float32) ([]float32, *http.Response) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"x":[`)
	for i, x := range src {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case isNaN32(x):
			b.WriteString(`"NaN"`)
		case math.IsInf(float64(x), 1):
			b.WriteString(`"Inf"`)
		case math.IsInf(float64(x), -1):
			b.WriteString(`"-Inf"`)
		default:
			b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
		}
	}
	b.WriteString(`]}`)
	resp, err := http.Post(base+"/v1/eval/"+fn+"/"+scheme, "application/json", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("POST eval: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var raw struct {
		Y []json.RawMessage `json:"y"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	if len(raw.Y) != len(src) {
		t.Fatalf("json reply has %d elements, want %d", len(raw.Y), len(src))
	}
	got := make([]float32, len(src))
	for i, m := range raw.Y {
		switch string(m) {
		case `"NaN"`:
			got[i] = float32(math.NaN())
		case `"Inf"`:
			got[i] = float32(math.Inf(1))
		case `"-Inf"`:
			got[i] = float32(math.Inf(-1))
		default:
			v, err := strconv.ParseFloat(string(m), 32)
			if err != nil {
				t.Fatalf("element %d %q: %v", i, m, err)
			}
			got[i] = float32(v)
		}
	}
	return got, resp
}

// wantFor computes the reference result straight from the shipped scalar
// kernel in internal/libm.
func wantFor(t *testing.T, fn string, scheme string, x float32) float32 {
	t.Helper()
	k := libm.GeneratedFuncs[fn+"/"+scheme]
	if k == nil {
		t.Fatalf("unknown func/scheme %s/%s", fn, scheme)
	}
	return float32(k(float64(x)))
}

// TestEndpointsBitIdentical: for every function and scheme, both endpoints
// return exactly float32(libm.GeneratedFuncs[fn/scheme](x)) — the server adds
// transport, not rounding. Both endpoints carry specials: the binary frame
// natively, JSON via the "NaN"/"Inf"/"-Inf" string spellings.
func TestEndpointsBitIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(42))

	binSrc := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 150, -150, 1e-40,
	}
	for i := 0; i < 500; i++ {
		binSrc = append(binSrc, math.Float32frombits(rng.Uint32()))
	}
	jsonSrc := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, 1, -1, 0.5, 2, 100, -100, 1e-30, -3.5,
	}
	for i := 0; i < 100; i++ {
		jsonSrc = append(jsonSrc, float32(rng.Float64()*200-100))
	}

	for _, fn := range []string{"exp", "exp2", "exp10", "log", "log2", "log10"} {
		for _, scheme := range []string{"rlibm", "rlibm-knuth", "rlibm-estrin", "rlibm-estrin-fma"} {
			got, resp := binEval(t, ts.URL, fn, scheme, binSrc)
			if got == nil {
				t.Fatalf("%s/%s: binary endpoint status %d", fn, scheme, resp.StatusCode)
			}
			for i, x := range binSrc {
				want := wantFor(t, fn, scheme, x)
				if math.Float32bits(got[i]) != math.Float32bits(want) &&
					!(isNaN32(got[i]) && isNaN32(want)) {
					t.Fatalf("%s/%s binary: f(%g) = %x, libm = %x",
						fn, scheme, x, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
			got, resp = jsonEval(t, ts.URL, fn, scheme, jsonSrc)
			if got == nil {
				t.Fatalf("%s/%s: json endpoint status %d", fn, scheme, resp.StatusCode)
			}
			for i, x := range jsonSrc {
				want := wantFor(t, fn, scheme, x)
				if math.Float32bits(got[i]) != math.Float32bits(want) &&
					!(isNaN32(got[i]) && isNaN32(want)) {
					t.Fatalf("%s/%s json: f(%g) = %x, libm = %x",
						fn, scheme, x, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
		}
	}
}

func isNaN32(x float32) bool { return x != x }

// TestShortSchemeNamesRoute: the generator spellings address the same
// kernels as the canonical names.
func TestShortSchemeNamesRoute(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := []float32{0.5, 2, -1}
	canon, _ := binEval(t, ts.URL, "exp2", "rlibm-estrin-fma", src)
	short, _ := binEval(t, ts.URL, "exp2", "estrin-fma", src)
	for i := range src {
		if math.Float32bits(canon[i]) != math.Float32bits(short[i]) {
			t.Fatalf("element %d: canonical %x, short %x", i, math.Float32bits(canon[i]), math.Float32bits(short[i]))
		}
	}
}

// TestRequestValidation covers the failure surface: malformed bodies,
// unknown routes, wrong methods and oversized batches.
func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatch: 8})
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/eval/exp/rlibm", `{"x":[1,`, http.StatusBadRequest},
		{"wrong type json", "/v1/eval/exp/rlibm", `{"x":"nope"}`, http.StatusBadRequest},
		{"unknown func", "/v1/eval/tan/rlibm", `{"x":[1]}`, http.StatusNotFound},
		{"unknown scheme", "/v1/eval/exp/neon", `{"x":[1]}`, http.StatusNotFound},
		{"unknown func bin", "/v1/evalbin/sinh/rlibm", "\x00\x00\x00\x00", http.StatusNotFound},
		{"ragged binary frame", "/v1/evalbin/exp/rlibm", "\x01\x02\x03", http.StatusBadRequest},
		{"oversized json batch", "/v1/eval/exp/rlibm", `{"x":[1,2,3,4,5,6,7,8,9]}`, http.StatusRequestEntityTooLarge},
		{"oversized binary batch", "/v1/evalbin/exp/rlibm", strings.Repeat("\x00", 4*9), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body).StatusCode; got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/eval/exp/rlibm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on eval: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
	// At the limit (not over) must succeed.
	if got, resp := binEval(t, ts.URL, "exp", "rlibm", make([]float32, 8)); got == nil {
		t.Errorf("batch at limit: status %d, want 200", resp.StatusCode)
	}
}

// TestHealthzAndMetricz: the liveness probe answers, served requests show
// up in the JSON metrics snapshot, and the default /metricz body is the
// Prometheus text exposition.
func TestHealthzAndMetricz(t *testing.T) {
	reg := obs.NewRegistry()
	ts := newTestServer(t, Config{Registry: reg})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	binEval(t, ts.URL, "log2", "rlibm", []float32{1, 2, 4})
	resp, err = http.Get(ts.URL + "/metricz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding metricz: %v", err)
	}
	resp.Body.Close()
	if n := snap.Counter("serve.eval_bin.requests"); n != 1 {
		t.Errorf("serve.eval_bin.requests = %d, want 1", n)
	}
	if h, ok := snap.Histograms["serve.batch_elems"]; !ok || h.Count != 1 || h.Sum != 3 {
		t.Errorf("serve.batch_elems snapshot = %+v, want count 1 sum 3", h)
	}

	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default metricz Content-Type = %q, want text/plain exposition", ct)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE serve_eval_bin_requests counter",
		"serve_batch_elems_sum 3",
		"# TYPE serve_coalesce_queue_elems gauge",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus metricz missing %q:\n%s", want, prom.String())
		}
	}
}

// TestShutdownDrain: cancelling the serve context closes the listener but
// lets the in-flight request finish and deliver its response before Serve
// returns.
func TestShutdownDrain(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{})
	srv := New(Config{Registry: obs.NewRegistry(), DrainTimeout: 5 * time.Second})
	var once bool
	srv.onEval = func() {
		if !once {
			once = true
			close(entered)
			<-hold
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	base := fmt.Sprintf("http://%s", ln.Addr())

	reqDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(base+"/v1/evalbin/exp/rlibm", "application/octet-stream",
			bytes.NewReader(make([]byte, 8)))
		if err != nil {
			reqDone <- nil
			return
		}
		resp.Body.Close()
		reqDone <- resp
	}()

	<-entered // request is in flight
	cancel()  // begin shutdown

	select {
	case <-serveDone:
		t.Fatal("Serve returned while a request was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(hold) // let the request finish
	resp := <-reqDone
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request failed during drain: %+v", resp)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drained request completed")
	}
	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}
