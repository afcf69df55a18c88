package fp

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidatePredefined(t *testing.T) {
	for _, f := range []Format{Float32, FP34, Bfloat16, TensorFloat32, Float16} {
		if err := f.Validate(); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Format{
		{Bits: 4, ExpBits: 1},   // exponent too narrow
		{Bits: 14, ExpBits: 13}, // no significand
		{Bits: 64, ExpBits: 11}, // precision 53 > 52
		{Bits: 60, ExpBits: 2},  // precision too wide
	}
	for _, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("%v: expected validation error", f)
		}
	}
}

func TestFormatParameters(t *testing.T) {
	if got := Float32.Prec(); got != 24 {
		t.Errorf("float32 precision = %d, want 24", got)
	}
	if got := FP34.Prec(); got != 26 {
		t.Errorf("fp34 precision = %d, want 26", got)
	}
	if got := Float32.Bias(); got != 127 {
		t.Errorf("float32 bias = %d, want 127", got)
	}
	if got := Float32.MaxFinite(); got != math.MaxFloat32 {
		t.Errorf("float32 max = %g, want %g", got, math.MaxFloat32)
	}
	if got := Float32.MinSubnormal(); got != math.SmallestNonzeroFloat32 {
		t.Errorf("float32 min subnormal = %g, want %g", got, math.SmallestNonzeroFloat32)
	}
	if got := Float16.MaxFinite(); got != 65504 {
		t.Errorf("float16 max = %g, want 65504", got)
	}
	if got := Bfloat16.Prec(); got != 8 {
		t.Errorf("bfloat16 precision = %d, want 8", got)
	}
	if got := TensorFloat32.Prec(); got != 11 {
		t.Errorf("tf32 precision = %d, want 11", got)
	}
}

// TestBitsRoundTrip decodes every bit pattern of a few small formats and
// re-encodes it, checking the round trip and representability.
func TestBitsRoundTrip(t *testing.T) {
	for _, f := range []Format{{Bits: 10, ExpBits: 4}, Float16, {Bits: 12, ExpBits: 5}} {
		f.Values(func(b uint64, v float64) bool {
			got, ok := f.ToBits(v)
			if !ok {
				t.Fatalf("%v: pattern %#x decodes to %g which ToBits rejects", f, b, v)
			}
			if math.IsNaN(v) {
				if got != f.NaNBits() {
					t.Fatalf("%v: NaN pattern %#x re-encodes to %#x", f, b, got)
				}
				return true
			}
			if got != b {
				// -0 and +0 and NaN aside, the round trip must be exact.
				t.Fatalf("%v: pattern %#x -> %g -> %#x", f, b, v, got)
			}
			return true
		})
	}
}

func TestToBitsRejectsUnrepresentable(t *testing.T) {
	f := Float16
	for _, x := range []float64{1 + 1e-9, math.Pi, 65504 * 2, 1e-30, math.Ldexp(1, -25)} {
		if _, ok := f.ToBits(x); ok {
			t.Errorf("ToBits(%g) unexpectedly representable in %v", x, f)
		}
	}
	for _, x := range []float64{1, 1.5, 65504, math.Ldexp(1, -24), -2048} {
		if _, ok := f.ToBits(x); !ok {
			t.Errorf("ToBits(%g) should be representable in %v", x, f)
		}
	}
}

func TestNextUpDownSmallFormat(t *testing.T) {
	f := Format{Bits: 10, ExpBits: 4}
	// Collect all finite values in ascending order via ordKey iteration.
	var asc []float64
	for k := -f.ordKey(f.InfBits() | f.SignBit()); ; k++ {
		b := f.fromOrdKey(k)
		v := f.FromBits(b)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			if math.IsInf(v, 1) {
				break
			}
			continue
		}
		asc = append(asc, v)
	}
	for i := 0; i+1 < len(asc); i++ {
		lo, hi := asc[i], asc[i+1]
		if lo == 0 && hi == 0 {
			continue // -0 followed by +0
		}
		got := f.NextUp(lo)
		want := hi
		// Skip over the -0/+0 double step.
		if lo != 0 && want == 0 && math.Signbit(want) {
			want = math.Copysign(0, -1)
		}
		if got != want && !(got == 0 && want == 0) {
			t.Fatalf("NextUp(%g) = %g, want %g", lo, got, want)
		}
		down := f.NextDown(hi)
		if hi != 0 && down != lo && !(down == 0 && lo == 0) {
			t.Fatalf("NextDown(%g) = %g, want %g", hi, down, lo)
		}
	}
	if got := f.NextUp(f.MaxFinite()); !math.IsInf(got, 1) {
		t.Errorf("NextUp(max) = %g, want +Inf", got)
	}
	if got := f.NextUp(0); got != f.MinSubnormal() {
		t.Errorf("NextUp(0) = %g, want %g", got, f.MinSubnormal())
	}
	if got := f.NextDown(0); got != -f.MinSubnormal() {
		t.Errorf("NextDown(0) = %g, want %g", got, -f.MinSubnormal())
	}
}

func TestRoundExactValuesFixed(t *testing.T) {
	// Rounding a value already in the format is the identity for every mode.
	f := Float16
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := uint64(rng.Intn(int(f.Count())))
		v := f.FromBits(b)
		if math.IsNaN(v) {
			continue
		}
		for _, m := range AllModes {
			if got := f.Round(v, m); got != v && !(got == 0 && v == 0) {
				t.Fatalf("Round(%g, %v) = %g, want identity", v, m, got)
			}
		}
	}
}

// TestRoundAgainstRatReference cross-checks the fast float64 rounding path
// against the exact rational reference on random inputs spanning normals,
// subnormals and overflow territory.
func TestRoundAgainstRatReference(t *testing.T) {
	formats := []Format{Float16, Bfloat16, TensorFloat32, {Bits: 10, ExpBits: 4}, {Bits: 20, ExpBits: 6}, Float32, FP34}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		f := formats[rng.Intn(len(formats))]
		x := randomFloat64(rng, f)
		m := AllModes[rng.Intn(len(AllModes))]
		got := f.Round(x, m)
		want := f.RoundRat(ratFromFloat(x), m)
		if !sameFloat(got, want) {
			t.Fatalf("%v: Round(%x=%g, %v) = %g, reference %g", f, math.Float64bits(x), x, m, got, want)
		}
	}
}

// TestRoundWideExponentAgainstRat: formats with float64's 11-bit exponent
// reach float64's subnormal range and a carry to 2^1024, where Round's
// final scaling by a power of two underflows to a subnormal or overflows.
func TestRoundWideExponentAgainstRat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []Format{{Bits: 40, ExpBits: 11}, {Bits: 63, ExpBits: 11}} {
		edges := []float64{f.MaxFinite(), f.MinNormal(), f.MinSubnormal(), 0x1p-1074, 0x1p-1073, math.MaxFloat64}
		for i := 0; i < 20000; i++ {
			var x float64
			if i < 2000 {
				x = edges[i%len(edges)]
				for k := rng.Intn(4); k > 0; k-- {
					x = math.Nextafter(x, math.Inf(rng.Intn(2)*2-1))
				}
			} else {
				x = math.Float64frombits(rng.Uint64())
			}
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
				continue // a big.Rat has no NaN, infinity or signed zero
			}
			for _, m := range AllModes {
				if got, want := f.Round(x, m), f.RoundRat(ratFromFloat(x), m); !sameFloat(got, want) {
					t.Fatalf("%v: Round(%x=%g, %v) = %g, reference %g", f, math.Float64bits(x), x, m, got, want)
				}
			}
		}
	}
}

func TestRoundDirectedOrdering(t *testing.T) {
	// RTN result <= RTZ-magnitude result <= value <= RTP result, and the
	// nearest results sit between the directed ones.
	f := Bfloat16
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		x := randomFloat64(rng, f)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		dn, up := f.Round(x, RTN), f.Round(x, RTP)
		if !(dn <= x && x <= up) {
			t.Fatalf("directed rounding disordered: %g not in [%g,%g]", x, dn, up)
		}
		for _, m := range []Mode{RNE, RNA, RTZ, RTO} {
			r := f.Round(x, m)
			if !(dn <= r && r <= up) {
				t.Fatalf("Round(%g,%v)=%g outside [%g,%g]", x, m, r, dn, up)
			}
		}
		// Nearest modes pick one of the two neighbours, whichever is closer.
		// (Skip the overflow boundary, where the upper neighbour is +-Inf
		// and the midpoint arithmetic below is meaningless.)
		if up != dn && !math.IsInf(up, 0) && !math.IsInf(dn, 0) {
			mid := (up + dn) / 2 // exact: adjacent format values differ by a power of two times <=2^prec
			rne := f.Round(x, RNE)
			if x < mid && rne != dn || x > mid && rne != up {
				t.Fatalf("RNE(%g) = %g with neighbours [%g,%g]", x, rne, dn, up)
			}
		}
	}
}

func TestRoundOverflowAllModes(t *testing.T) {
	f := Float16
	max := f.MaxFinite() // 65504
	big := 1e9
	tests := []struct {
		x    float64
		m    Mode
		want float64
	}{
		{big, RNE, math.Inf(1)},
		{big, RNA, math.Inf(1)},
		{big, RTZ, max},
		{big, RTP, math.Inf(1)},
		{big, RTN, max},
		{big, RTO, max},
		{-big, RNE, math.Inf(-1)},
		{-big, RTZ, -max},
		{-big, RTP, -max},
		{-big, RTN, math.Inf(-1)},
		{-big, RTO, -max},
		{65519, RNE, max},          // just below the overflow threshold 65520
		{65520, RNE, math.Inf(1)},  // exactly at the threshold: ties to even overflows
		{65520, RNA, math.Inf(1)},  //
		{65519.999, RTZ, max},      //
		{65536, RTO, max},          // 2^16 is even in the extended sense
		{65504.0001, RTO, max + 0}, // saturates at max
	}
	for _, tc := range tests {
		if got := f.Round(tc.x, tc.m); !sameFloat(got, tc.want) {
			t.Errorf("Round(%g, %v) = %g, want %g", tc.x, tc.m, got, tc.want)
		}
	}
}

func TestRoundUnderflowToZeroAndMinSub(t *testing.T) {
	f := Float16
	tiny := f.MinSubnormal() / 4
	if got := f.Round(tiny, RNE); got != 0 || math.Signbit(got) {
		t.Errorf("RNE(tiny) = %g, want +0", got)
	}
	if got := f.Round(tiny, RTP); got != f.MinSubnormal() {
		t.Errorf("RTP(tiny) = %g, want min subnormal", got)
	}
	if got := f.Round(-tiny, RTP); got != 0 || !math.Signbit(got) {
		t.Errorf("RTP(-tiny) = %g, want -0", got)
	}
	if got := f.Round(-tiny, RTN); got != -f.MinSubnormal() {
		t.Errorf("RTN(-tiny) = %g, want -min subnormal", got)
	}
	// Round-to-odd never flushes a nonzero value to zero: the zero encoding
	// is even, so the smallest subnormal (odd) is chosen instead.
	if got := f.Round(tiny, RTO); got != f.MinSubnormal() {
		t.Errorf("RTO(tiny) = %g, want min subnormal", got)
	}
	if got := f.Round(-tiny, RTO); got != -f.MinSubnormal() {
		t.Errorf("RTO(-tiny) = %g, want -min subnormal", got)
	}
	// Halfway between 0 and the min subnormal, ties-to-even flushes to zero.
	half := f.MinSubnormal() / 2
	if got := f.Round(half, RNE); got != 0 {
		t.Errorf("RNE(minsub/2) = %g, want 0", got)
	}
	if got := f.Round(half, RNA); got != f.MinSubnormal() {
		t.Errorf("RNA(minsub/2) = %g, want min subnormal", got)
	}
}

func TestRoundSpecials(t *testing.T) {
	f := Float16
	for _, m := range AllModes {
		if got := f.Round(math.NaN(), m); !math.IsNaN(got) {
			t.Errorf("Round(NaN,%v) = %g", m, got)
		}
		if got := f.Round(math.Inf(1), m); !math.IsInf(got, 1) {
			t.Errorf("Round(+Inf,%v) = %g", m, got)
		}
		if got := f.Round(math.Inf(-1), m); !math.IsInf(got, -1) {
			t.Errorf("Round(-Inf,%v) = %g", m, got)
		}
		if got := f.Round(0, m); got != 0 || math.Signbit(got) {
			t.Errorf("Round(+0,%v) = %g", m, got)
		}
		if got := f.Round(math.Copysign(0, -1), m); got != 0 || !math.Signbit(got) {
			t.Errorf("Round(-0,%v) = %g", m, got)
		}
	}
}

// sameFloat compares float64s treating NaN==NaN and distinguishing the sign
// of zero.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomFloat64 draws float64 values concentrated around the interesting
// ranges of format f: normals, subnormals, binade boundaries and overflow.
func randomFloat64(rng *rand.Rand, f Format) float64 {
	switch rng.Intn(6) {
	case 0: // arbitrary bit pattern within double range of the format
		e := rng.Intn(f.MaxExp()-f.MinExp()+8) + f.MinExp() - 4
		m := 1 + rng.Float64()
		return math.Copysign(math.Ldexp(m, e), float64(rng.Intn(2)*2-1))
	case 1: // around the subnormal threshold
		return math.Copysign(f.MinNormal()*(0.5+rng.Float64()), float64(rng.Intn(2)*2-1))
	case 2: // deep subnormal
		return math.Copysign(f.MinSubnormal()*rng.Float64()*4, float64(rng.Intn(2)*2-1))
	case 3: // near overflow
		return math.Copysign(f.MaxFinite()*(0.9+0.2*rng.Float64()), float64(rng.Intn(2)*2-1))
	case 4: // exact format value plus a tiny dither
		b := uint64(rng.Intn(int(f.Count())))
		v := f.FromBits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rng.Float64()
		}
		return math.Nextafter(v, v+math.Copysign(1, v))
	default: // plain uniform
		return math.Copysign(rng.Float64()*10, float64(rng.Intn(2)*2-1))
	}
}
