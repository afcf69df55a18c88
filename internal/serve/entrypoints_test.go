package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rlibm/internal/libm"
	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// FuzzEntryPointsAgree: every way of asking for one result returns the same
// float32 — rlibm.Eval (full precision), an Evaluator's Eval, its EvalBatch
// on every available backend over 1 element and over a 300-element block,
// and the JSON, evalbin and stream endpoints of one in-process server. The
// expected value comes straight from the shipped scalar kernel, rounded
// once by libm.PrecSpec.Kernel at tf32/bf16. Results agree bit for bit,
// except that a NaN only has to be a NaN: JSON spells every NaN "NaN".
func FuzzEntryPointsAgree(f *testing.F) {
	srv := New(Config{Registry: obs.NewRegistry()})
	handler := srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeStream(ctx, ln) }()
	f.Cleanup(func() {
		cancel()
		<-done
	})
	stream, err := DialStream(ln.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { stream.Close() })

	// log/bf16 0x3f838611 is the input the retired prefix kernels got
	// wrong; log2/tf32 0x4be2055b is the narrow face of a float32 kernel
	// residual (ROADMAP item 1).
	f.Add(uint32(0x3f838611), uint8(rlibm.FuncLog), uint8(rlibm.EstrinFMA), uint8(rlibm.PrecBfloat16))
	f.Add(uint32(0x4be2055b), uint8(rlibm.FuncLog2), uint8(rlibm.EstrinFMA), uint8(rlibm.PrecTF32))
	f.Fuzz(func(t *testing.T, bits uint32, fi, si, pi uint8) {
		fn := rlibm.Funcs[int(fi)%rlibm.NumFuncs]
		sch := rlibm.Schemes[int(si)%rlibm.NumSchemes]
		p := rlibm.Precisions[int(pi)%rlibm.NumPrecisions]
		x := math.Float32frombits(bits)

		k := libm.GeneratedFuncs[fn.String()+"/"+sch.String()]
		if ps, narrow := libm.PrecSpecByName(p.String()); narrow {
			k = ps.Kernel(k)
		}
		want := float32(k(float64(x)))
		check := func(path string, got float32) {
			t.Helper()
			if math.Float32bits(got) != math.Float32bits(want) && !(isNaN32(got) && isNaN32(want)) {
				t.Fatalf("%v/%v/%v(%#08x): %s gives %#08x, the scalar kernel %#08x",
					fn, sch, p, bits, path, math.Float32bits(got), math.Float32bits(want))
			}
		}

		if p == rlibm.PrecFloat32 {
			check("rlibm.Eval", rlibm.Eval(fn, sch, x))
		}
		ev, err := rlibm.New(fn, sch, rlibm.WithPrecision(p))
		if err != nil {
			t.Fatal(err)
		}
		check("Evaluator.Eval", ev.Eval(x))
		backends, err := rlibm.Backends(fn, sch, p)
		if err != nil {
			t.Fatal(err)
		}
		block := make([]float32, 300)
		for i := range block {
			block[i] = x
		}
		out := make([]float32, len(block))
		for _, b := range backends {
			ev, err := rlibm.New(fn, sch, rlibm.WithPrecision(p), rlibm.WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			ev.EvalBatch(out[:1], block[:1])
			check(fmt.Sprintf("EvalBatch/%v/1", b), out[0])
			ev.EvalBatch(out, block)
			for i, y := range out {
				check(fmt.Sprintf("EvalBatch/%v/300[%d]", b, i), y)
			}
		}

		path := "/" + fn.String() + "/" + sch.String()
		check("JSON", entryJSON(t, handler, path, p, x))
		check("evalbin", entryEvalBin(t, handler, path, p, x))
		if err := stream.EvalPrec(fn, sch, p, out[:1], block[:1]); err != nil {
			t.Fatalf("stream: %v", err)
		}
		check("stream", out[0])
	})
}

// entryJSON evaluates x through the JSON endpoint, spelling non-finite
// values as the server does in both directions.
func entryJSON(t *testing.T, h http.Handler, path string, p rlibm.Precision, x float32) float32 {
	t.Helper()
	lit := func(v float32) string {
		switch {
		case isNaN32(v):
			return `"NaN"`
		case math.IsInf(float64(v), 1):
			return `"Inf"`
		case math.IsInf(float64(v), -1):
			return `"-Inf"`
		}
		return strconv.FormatFloat(float64(v), 'g', -1, 32)
	}
	body := fmt.Sprintf(`{"x":[%s],"prec":%q}`, lit(x), p.String())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/eval"+path, strings.NewReader(body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("JSON %s: status %d: %s", body, rr.Code, rr.Body)
	}
	var resp struct {
		Y []json.RawMessage `json:"y"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || len(resp.Y) != 1 {
		t.Fatalf("JSON reply %s: %v", rr.Body, err)
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if string(resp.Y[0]) == lit(v) {
			return v
		}
	}
	y, err := strconv.ParseFloat(string(resp.Y[0]), 32)
	if err != nil {
		t.Fatalf("JSON reply %s: %v", rr.Body, err)
	}
	return float32(y)
}

// entryEvalBin evaluates x through the binary endpoint.
func entryEvalBin(t *testing.T, h http.Handler, path string, p rlibm.Precision, x float32) float32 {
	t.Helper()
	body := binary.LittleEndian.AppendUint32(nil, math.Float32bits(x))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/evalbin"+path+"?prec="+p.String(), bytes.NewReader(body)))
	if rr.Code != http.StatusOK || rr.Body.Len() != 4 {
		t.Fatalf("evalbin: status %d, %d bytes", rr.Code, rr.Body.Len())
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(rr.Body.Bytes()))
}
