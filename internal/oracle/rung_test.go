package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlibm/internal/fp"
)

// rungFormats is the repository's format set: the RLibm-ALL oracle format
// and the three serving formats.
var rungFormats = []fp.Format{fp.FP34, fp.Float32, fp.TensorFloat32, fp.Bfloat16}

// polyDomain bounds each function's float32 polynomial-path domain: the
// exponentials between the float32 underflow and overflow cuts, the
// logarithms over every positive float32. It includes the plateau around
// x = 0 where the exponentials' results are pinned next to 1.
func polyDomain(f Func) (lo, hi float64) {
	switch f {
	case Exp:
		return -104, 89
	case Exp2:
		return -150, 128
	case Exp10:
		return -45.5, 38.6
	}
	return 0, math.MaxFloat32
}

// rungSample draws n float32 inputs for f from a seeded generator: a third
// uniform in bit pattern over the polynomial-path domain, a third uniform in
// value over it, and a third in the hard neighbourhoods — x -> 1 for the
// logarithms, x -> 0 (down to the smallest subnormal) for the
// exponentials.
func rungSample(f Func, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := polyDomain(f)
	xs := make([]float64, 0, n)
	for len(xs) < n {
		var x float64
		switch len(xs) % 3 {
		case 0:
			x = float64(math.Float32frombits(rng.Uint32()))
		case 1:
			x = lo + (hi-lo)*rng.Float64()
			if f.IsLog() {
				x = math.Ldexp(1+rng.Float64(), rng.Intn(277)-149)
			}
		case 2:
			if f.IsLog() {
				d := math.Ldexp(1+rng.Float64(), -rng.Intn(20)-9)
				if rng.Intn(2) == 0 {
					d = -d
				}
				x = 1 + d
			} else {
				x = math.Ldexp(1+rng.Float64(), -rng.Intn(143)-7)
				if rng.Intn(2) == 0 {
					x = -x
				}
			}
		}
		x = float64(float32(x))
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= lo || x >= hi || x == 0 {
			continue
		}
		if _, exact := exactResult(f, x); exact {
			continue
		}
		xs = append(xs, x)
	}
	return xs
}

// TestRungErrorBound measures the rung's relative error against the
// double-word reference of rung_ref_test.go (which TestRungReference checks
// against big.Float) over a million seeded inputs per function (64k under
// -short) and asserts that every error is below the enclosure's bound and
// the largest is at most half the written bound. For the exponentials at
// n = 0 the error is relative to f(x) - 1.
func TestRungErrorBound(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	for _, f := range Funcs {
		worst := 0.0
		var worstX float64
		for _, x := range rungSample(f, n, int64(f)+100) {
			a, y, bnd, ok := rungEval(f, x)
			if !ok {
				t.Fatalf("%v(%g): rung declined an input of the polynomial-path domain", f, x)
			}
			ref := refEval(f, x, a)
			// y - ref.hi is exact (Sterbenz); the second subtraction rounds
			// the error, not the value.
			diff := math.Abs((y - ref.hi) - ref.lo)
			if !(diff < bnd) {
				t.Fatalf("%v(%g): error %g not below the enclosure bound %g", f, x, diff, bnd)
			}
			if rel := diff / math.Abs(ref.hi); rel > worst {
				worst, worstX = rel, x
			}
		}
		bound := math.Ldexp(1, -rungErrBits[f])
		t.Logf("%v: largest relative error 2^%.2f at x = %g (written bound 2^-%d)", f, math.Log2(worst), worstX, rungErrBits[f])
		if !(worst <= bound/2) {
			t.Errorf("%v: relative error %g at x = %g exceeds half the written bound 2^-%d", f, worst, worstX, rungErrBits[f])
		}
	}
}

// rungCase is one (format, mode) pair the differential checks cover.
type rungCase struct {
	t fp.Format
	m fp.Mode
}

// rungCases lists FP34 under round-to-odd and the three serving formats
// under the five standard modes.
func rungCases() []rungCase {
	cs := []rungCase{{fp.FP34, fp.RTO}}
	for _, t := range rungFormats[1:] {
		for _, m := range fp.StandardModes {
			cs = append(cs, rungCase{t, m})
		}
	}
	return cs
}

// checkRungAgrees compares, for every case, the public Compute/Round answer
// for f(x) with the forced big.Float answer, and returns how many of the
// cases the rung's enclosure settled on its own.
func checkRungAgrees(t testing.TB, f Func, x float64, cases []rungCase) int {
	e, ok := rung(f, x)
	if !ok {
		return 0
	}
	v, ref := Compute(f, x), compute(f, x, false)
	hits := 0
	for _, c := range cases {
		if _, ok := e.round(c.t, c.m); ok {
			hits++
		}
		if got, want := v.Round(c.t, c.m), ref.Round(c.t, c.m); !sameFloat(got, want) {
			t.Fatalf("%v(%v) in %v/%v: rung path %v, big.Float %v", f, x, c.t, c.m, got, want)
		}
	}
	return hits
}

// TestRungDifferential cross-checks the rung against the forced big.Float
// path over 1M seeded float32 inputs (64k under -short), spread over the six
// functions, for FP34/RTO and float32/tf32/bf16 under all five modes.
func TestRungDifferential(t *testing.T) {
	total := 1 << 20
	if testing.Short() {
		total = 1 << 16
	}
	cases := rungCases()
	per := total / len(Funcs)
	for _, f := range Funcs {
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			hits, checks := 0, 0
			for _, x := range rungSample(f, per+1, int64(f)+200) {
				hits += checkRungAgrees(t, f, x, cases)
				checks += len(cases)
			}
			t.Logf("rung answered %d of %d (format, mode) queries", hits, checks)
			if float64(hits) < 0.999*float64(checks) {
				t.Errorf("rung answered only %d of %d queries", hits, checks)
			}
		})
	}
}

// TestRungNearOne pins the two regions a bound relative to f(x) alone
// cannot settle. Next to an exponential result of 1 (x = ±2^-k) the rung
// bounds its error relative to f(x) - 1 and settles every (format, mode),
// round-to-odd included, through the float64 round-to-odd of the open
// enclosure; the big.Float path needs over 1000 bits there. At
// x = 1 ± k·2^-23 and 1 - k·2^-24, ln x lies 2^-49.6 (relative) from the
// FP34 grid for the smallest k, inside the logarithms' bounds. The rung
// settles every query, and its answers equal the big.Float path's.
func TestRungNearOne(t *testing.T) {
	type input struct {
		f Func
		x float64
	}
	var ins []input
	for _, f := range []Func{Exp, Exp2, Exp10} {
		for _, k := range []int{30, 61, 100, 149, 300, 1000, 1060} {
			ins = append(ins, input{f, math.Ldexp(1.375, -k)})
		}
		for k := 26; k <= 149; k++ {
			ins = append(ins, input{f, math.Ldexp(1, -k)}, input{f, -math.Ldexp(1, -k)})
		}
		for _, k := range []int{300, 1000, 1060} {
			ins = append(ins, input{f, -math.Ldexp(1, -k)})
		}
	}
	for _, f := range []Func{Log, Log2, Log10} {
		for k := 1; k <= 64; k++ {
			d := float64(k)
			ins = append(ins, input{f, 1 + d*0x1p-23}, input{f, 1 - d*0x1p-23}, input{f, 1 - d*0x1p-24})
		}
	}
	formats := append([]fp.Format{fp.Float16}, rungFormats...)
	for _, in := range ins {
		if _, exact := exactResult(in.f, in.x); exact {
			continue
		}
		e, ok := rung(in.f, in.x)
		if !ok {
			t.Fatalf("%v(%g): rung declined", in.f, in.x)
		}
		v, ref := Compute(in.f, in.x), compute(in.f, in.x, false)
		for _, tf := range formats {
			for _, m := range fp.AllModes {
				if _, ok := e.round(tf, m); !ok {
					t.Errorf("%v(%g) in %v/%v: rung declined", in.f, in.x, tf, m)
				}
				if got, want := v.Round(tf, m), ref.Round(tf, m); !sameFloat(got, want) {
					t.Errorf("%v(%g) in %v/%v: rung path %v, big.Float %v", in.f, in.x, tf, m, got, want)
				}
			}
		}
	}
}

// TestRungHitRate: for each function the rung settles at least 99.99% of
// 200k sample inputs at FP34 round-to-odd, the RLibm-ALL oracle query. The
// float32 round-to-nearest rate is reported alongside.
func TestRungHitRate(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for _, f := range Funcs {
		ro34, rne32 := 0, 0
		for _, x := range rungSample(f, n, int64(f)+400) {
			e, ok := rung(f, x)
			if !ok {
				continue
			}
			if _, ok := e.round(fp.FP34, fp.RTO); ok {
				ro34++
			}
			if _, ok := e.round(fp.Float32, fp.RNE); ok {
				rne32++
			}
		}
		t.Logf("%v: FP34/RTO %d of %d, float32/RNE %d of %d", f, ro34, n, rne32, n)
		if float64(ro34) < 0.9999*float64(n) {
			t.Errorf("%v: rung settled only %d of %d FP34/RTO queries", f, ro34, n)
		}
	}
}

// FuzzFastRung: for any input in the rung's domain and any (format, mode)
// of the repository's format set, an answer the rung accepts equals the
// big.Float answer.
func FuzzFastRung(f *testing.F) {
	f.Add(uint8(Exp), 0.5, uint8(0), uint8(fp.RTO))
	f.Add(uint8(Log), 1.0000001, uint8(1), uint8(fp.RNE))
	f.Add(uint8(Exp10), -37.9, uint8(2), uint8(fp.RTP))
	f.Add(uint8(Log2), 3e-39, uint8(3), uint8(fp.RTN))
	f.Add(uint8(Exp2), 127.99, uint8(1), uint8(fp.RNA))
	f.Add(uint8(Log10), 7.5e37, uint8(0), uint8(fp.RTZ))
	f.Fuzz(func(t *testing.T, fn uint8, x float64, format, mode uint8) {
		fun := Funcs[int(fn)%len(Funcs)]
		if math.IsNaN(x) || math.IsInf(x, 0) || (fun.IsLog() && x <= 0) {
			return
		}
		if _, exact := exactResult(fun, x); exact {
			return
		}
		c := rungCase{rungFormats[int(format)%len(rungFormats)], fp.AllModes[int(mode)%len(fp.AllModes)]}
		checkRungAgrees(t, fun, x, []rungCase{c})
	})
}

// BenchmarkCorrectRO34 times one cold RO34 query per input through the
// public path (rung, with the Ziv loop behind it) and through the forced
// big.Float path, for all six functions. Inputs cycle through a seeded
// float32 sample of the polynomial-path domain, so no query repeats within
// 4096 iterations and nothing is cached.
func BenchmarkCorrectRO34(b *testing.B) {
	for _, f := range Funcs {
		xs := rungSample(f, 4096, int64(f)+300)
		for _, path := range []struct {
			name string
			rung bool
		}{{"rung", true}, {"big", false}} {
			b.Run(fmt.Sprintf("%v/%s", f, path.name), func(b *testing.B) {
				ResetLadders()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkRO34 = compute(f, xs[i&4095], path.rung).Round(fp.FP34, fp.RTO)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "computes/s")
			})
		}
	}
}

var sinkRO34 float64
