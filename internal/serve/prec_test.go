package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// precEvaluator builds the reference Evaluator for a combo, failing the test
// on an invalid combination (all combos in these tests are valid).
func precEvaluator(t *testing.T, f rlibm.Func, sch rlibm.Scheme, p rlibm.Precision) *rlibm.Evaluator {
	t.Helper()
	ev, err := rlibm.New(f, sch, rlibm.WithPrecision(p))
	if err != nil {
		t.Fatalf("New(%v, %v, %v): %v", f, sch, p, err)
	}
	return ev
}

// jsonEvalPrec posts {"x":[...], "prec": name} and decodes {"y":[...]}.
func jsonEvalPrec(t *testing.T, base, fn, scheme, prec string, src []float32) ([]float32, *http.Response) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"x":[`)
	for i, x := range src {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
	}
	b.WriteString(`]`)
	if prec != "" {
		fmt.Fprintf(&b, `,"prec":%q`, prec)
	}
	b.WriteString(`}`)
	resp, err := http.Post(base+"/v1/eval/"+fn+"/"+scheme, "application/json", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("POST eval: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var out struct {
		Y []float32 `json:"y"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out.Y, resp
}

// TestJSONPrecField: the optional "prec" field selects the served precision.
// Every canonical name and the fp16 alias must produce results bit-identical
// to the matching Evaluator, and narrow results must be exact values of the
// narrow format (trailing significand bits zero in the float32 carrier).
func TestJSONPrecField(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := []float32{0.5, 1.25, 2.75, 3.5, 0.0625}
	cases := []struct {
		name string
		p    rlibm.Precision
	}{
		{"float32", rlibm.PrecFloat32},
		{"tf32", rlibm.PrecTF32},
		{"bf16", rlibm.PrecBfloat16},
		{"fp16", rlibm.PrecTF32},     // alias resolves to the covered format
		{"BF16", rlibm.PrecBfloat16}, // case-insensitive
	}
	for _, f := range rlibm.Funcs {
		for _, tc := range cases {
			ev := precEvaluator(t, f, rlibm.Horner, tc.p)
			got, resp := jsonEvalPrec(t, ts.URL, f.String(), "horner", tc.name, src)
			if got == nil {
				t.Fatalf("%v prec=%s: status %d", f, tc.name, resp.StatusCode)
			}
			for i, x := range src {
				want := ev.Eval(x)
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Errorf("%v(%v) prec=%s: got %x, want %x", f, x, tc.name,
						math.Float32bits(got[i]), math.Float32bits(want))
				}
				if tc.p == rlibm.PrecBfloat16 && math.Float32bits(got[i])&0xFFFF != 0 {
					t.Errorf("%v(%v) prec=%s: %x is not an exact bfloat16 value",
						f, x, tc.name, math.Float32bits(got[i]))
				}
			}
		}
	}
}

// TestJSONPrecOmittedAndNull: leaving "prec" out or sending null serves full
// precision — old request bodies keep their exact meaning.
func TestJSONPrecOmittedAndNull(t *testing.T) {
	ts := newTestServer(t, Config{})
	ev := precEvaluator(t, rlibm.FuncExp2, rlibm.Horner, rlibm.PrecFloat32)
	want := ev.Eval(1.5)
	for _, body := range []string{`{"x":[1.5]}`, `{"x":[1.5],"prec":null}`, `{"prec":"float32","x":[1.5]}`} {
		resp, err := http.Post(ts.URL+"/v1/eval/exp2/horner", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Y []float32 `json:"y"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		resp.Body.Close()
		if len(out.Y) != 1 || math.Float32bits(out.Y[0]) != math.Float32bits(want) {
			t.Errorf("%s: got %v, want [%v]", body, out.Y, want)
		}
	}
}

// TestJSONPrecInvalid: an unknown precision name is a 400 in the uniform
// {error, ...} schema, and the message enumerates the valid names (it is
// rlibm.ParsePrecision's own error). A non-string "prec" is also a 400.
func TestJSONPrecInvalid(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		body     string
		wantFrag string
	}{
		{`{"x":[1],"prec":"binary64"}`, `unknown precision "binary64"`},
		{`{"x":[1],"prec":"binary64"}`, "float32, tf32, bf16"},
		{`{"x":[1],"prec":7}`, `"prec" must be a string`},
	} {
		resp, err := http.Post(ts.URL+"/v1/eval/exp/horner", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(e.Error, tc.wantFrag) {
			t.Errorf("%s: error %q does not mention %q", tc.body, e.Error, tc.wantFrag)
		}
	}
}

// TestEvalBinPrecQuery: the binary endpoint selects precision with ?prec=,
// bit-identical to the Evaluator; an unknown name is the same uniform 400.
func TestEvalBinPrecQuery(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := []float32{0.5, 1.5, 2.5, 3.25}
	body := make([]byte, 4*len(src))
	for i, x := range src {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(x))
	}
	for _, p := range rlibm.Precisions {
		ev := precEvaluator(t, rlibm.FuncLog2, rlibm.EstrinFMA, p)
		resp, err := http.Post(ts.URL+"/v1/evalbin/log2/estrin-fma?prec="+p.String(),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prec=%s: status %d", p, resp.StatusCode)
		}
		for i, x := range src {
			got := math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[4*i:]))
			want := ev.Eval(x)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("log2(%v) prec=%s: got %x, want %x", x, p,
					math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
	resp, err := http.Post(ts.URL+"/v1/evalbin/log2/horner?prec=fp64",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?prec=fp64: status %d, want 400", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if !strings.Contains(e.Error, "unknown precision") {
		t.Errorf("?prec=fp64: error %q lacks the parse message", e.Error)
	}
}

// TestStreamPrecRoundTrip: EvalPrec carries the precision code in the flags
// high byte and the server answers with the narrow evaluator's bits, for
// every precision, interleaved on one connection.
func TestStreamPrecRoundTrip(t *testing.T) {
	_, addr := startStreamServer(t, Config{
		CoalesceMaxRequest: 4096,
		CoalesceFlushElems: 2048,
	})
	c, err := DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	src := []float32{0.25, 0.5, 1.5, 2.5, 3.75}
	var wg sync.WaitGroup
	for _, p := range rlibm.Precisions {
		for _, sch := range rlibm.Schemes {
			wg.Add(1)
			go func(p rlibm.Precision, sch rlibm.Scheme) {
				defer wg.Done()
				ev := precEvaluator(t, rlibm.FuncExp, sch, p)
				dst := make([]float32, len(src))
				if err := c.EvalPrec(rlibm.FuncExp, sch, p, dst, src); err != nil {
					t.Errorf("EvalPrec %v/%v: %v", sch, p, err)
					return
				}
				for i, x := range src {
					want := ev.Eval(x)
					if math.Float32bits(dst[i]) != math.Float32bits(want) {
						t.Errorf("exp(%v) %v/%v: got %x, want %x", x, sch, p,
							math.Float32bits(dst[i]), math.Float32bits(want))
					}
				}
			}(p, sch)
		}
	}
	wg.Wait()
}

// TestStreamPrecBadFrames: an out-of-range precision code gets the dedicated
// streamBadPrec status; reserved flags bits (1–7) stay a bad frame even when
// the precision byte is valid — and the connection survives both.
func TestStreamPrecBadFrames(t *testing.T) {
	_, addr := startStreamServer(t, Config{CoalesceMaxRequest: -1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, math.Float32bits(1))

	badPrec := uint16(rlibm.NumPrecisions) << streamPrecShift
	status, _, body := rawFrame(t, conn, 1, byte(rlibm.FuncExp), byte(rlibm.Horner), badPrec, payload)
	if status != streamBadPrec {
		t.Errorf("precision code %d: status %d (%s), want streamBadPrec", rlibm.NumPrecisions, status, body)
	}
	if !strings.Contains(string(body), "unknown precision code") {
		t.Errorf("bad-precision message %q lacks the code diagnostic", body)
	}

	reserved := uint16(rlibm.PrecBfloat16)<<streamPrecShift | 0x0002
	status, _, body = rawFrame(t, conn, 2, byte(rlibm.FuncExp), byte(rlibm.Horner), reserved, payload)
	if status != streamBadFrame {
		t.Errorf("reserved flags bits: status %d (%s), want streamBadFrame", status, body)
	}

	// The connection survived: a valid narrow frame still works.
	prec := uint16(rlibm.PrecBfloat16) << streamPrecShift
	status, _, body = rawFrame(t, conn, 3, byte(rlibm.FuncExp), byte(rlibm.Horner), prec, payload)
	if status != streamOK {
		t.Fatalf("bf16 frame after errors: status %d (%s)", status, body)
	}
	ev := precEvaluator(t, rlibm.FuncExp, rlibm.Horner, rlibm.PrecBfloat16)
	got := math.Float32frombits(binary.LittleEndian.Uint32(body))
	if want := ev.Eval(1); math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("bf16 exp(1): got %x, want %x", math.Float32bits(got), math.Float32bits(want))
	}
}

// TestCanaryNarrowPrecision: the canary adjudicates narrow traffic against
// the narrow format's correctly rounded value — bf16 traffic verifies clean
// (checked > 0, zero mismatches), and an input that is not representable at
// the served precision is skipped rather than misjudged.
func TestCanaryNarrowPrecision(t *testing.T) {
	srv := New(Config{Registry: obs.NewRegistry(), CanarySample: 1, CanaryQueue: 1 << 10})
	c := srv.canary
	ev := precEvaluator(t, rlibm.FuncExp, rlibm.Horner, rlibm.PrecBfloat16)

	src := []float32{0.5, 1.5, 2.5, 3.5}
	dst := make([]float32, len(src))
	ev.EvalBatch(dst, src)
	c.offer(rlibm.FuncExp, rlibm.PrecBfloat16, src, dst)

	// 1 + 2^-8 needs 9 significand bits: representable in float32 and tf32,
	// not in bfloat16 — the bf16 canary must skip it, the tf32 one check it.
	narrowOnly := []float32{1 + 1.0/256}
	evT := precEvaluator(t, rlibm.FuncExp, rlibm.Horner, rlibm.PrecTF32)
	outT := make([]float32, 1)
	evT.EvalBatch(outT, narrowOnly)
	c.offer(rlibm.FuncExp, rlibm.PrecBfloat16, narrowOnly, make([]float32, 1))
	c.offer(rlibm.FuncExp, rlibm.PrecTF32, narrowOnly, outT)

	srv.Close()
	if n := c.checked.Value(); n != int64(len(src))+1 {
		t.Errorf("checked_total = %d, want %d", n, len(src)+1)
	}
	if n := c.mismatch.Value(); n != 0 {
		t.Errorf("mismatch_total = %d on correct narrow traffic, want 0", n)
	}
	if n := c.skipped.Value(); n != 1 {
		t.Errorf("skipped_total = %d, want 1 (the bf16-unrepresentable input)", n)
	}
}

// TestCoalescePerPrecision: the accumulators are keyed by precision, so
// concurrent small requests at different precisions coalesce separately and
// each comes back with its own precision's bits — never the widest kernel's.
func TestCoalescePerPrecision(t *testing.T) {
	ts := newTestServer(t, Config{
		CoalesceMaxRequest: 1024,
		CoalesceFlushElems: 4096,
		CoalesceMaxDelay:   time.Millisecond,
	})
	src := []float32{0.5, 1.25, 2.75}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		for _, p := range rlibm.Precisions {
			wg.Add(1)
			go func(p rlibm.Precision) {
				defer wg.Done()
				ev := precEvaluator(t, rlibm.FuncLog2, rlibm.Knuth, p)
				got, resp := jsonEvalPrec(t, ts.URL, "log2", "knuth", p.String(), src)
				if got == nil {
					t.Errorf("prec=%s: status %d", p, resp.StatusCode)
					return
				}
				for i, x := range src {
					want := ev.Eval(x)
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Errorf("log2(%v) prec=%s: got %x, want %x", x, p,
							math.Float32bits(got[i]), math.Float32bits(want))
					}
				}
			}(p)
		}
	}
	wg.Wait()
}
