package fp

import (
	"math"
	"testing"
)

// FuzzRoundOddAgreement fuzzes the round-to-odd theorem (Section 2 of the
// paper) over exact doubles: rounding x to a (w+2)-bit format under
// round-to-odd and then to the w-bit format under any standard mode must
// agree with rounding x to w bits directly — that is the property that lets
// one 34-bit oracle result serve every narrower format. The fuzzer also
// cross-checks the fast float64 rounding path against the exact rational
// reference on every probe, for both the final and the intermediate format.
func FuzzRoundOddAgreement(f *testing.F) {
	f.Add(math.Float64bits(1.0), uint8(0), uint8(0))
	f.Add(math.Float64bits(1.5), uint8(6), uint8(1))
	f.Add(math.Float64bits(0x1.ffffffp+127), uint8(22), uint8(3)) // MaxFinite of binary32
	f.Add(math.Float64bits(0x1p-149), uint8(22), uint8(4))        // binary32 MinSubnormal
	f.Add(math.Float64bits(-0x1.000002p-126), uint8(14), uint8(2))
	f.Add(math.Float64bits(0x1.0000010000001p+0), uint8(12), uint8(0)) // just above a binade tie
	f.Fuzz(func(t *testing.T, xbits uint64, wSel, mSel uint8) {
		x := math.Float64frombits(xbits)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		w := 10 + int(wSel)%23 // final widths 10..32, the RLibm-ALL range
		narrow := Format{Bits: w, ExpBits: 8}
		wide := Format{Bits: w + 2, ExpBits: 8}
		m := StandardModes[int(mSel)%len(StandardModes)]

		ro := wide.Round(x, RTO)
		direct := narrow.Round(x, m)
		double := narrow.Round(ro, m)
		if !sameFloat(direct, double) {
			t.Fatalf("theorem violated: x=%g (%#x) w=%d mode=%v: direct %g, through RO(%d) %g",
				x, xbits, w, m, direct, w+2, double)
		}

		r := ratFromFloat(x)
		if want := narrow.RoundRat(r, m); !sameFloat(direct, want) {
			t.Fatalf("%v.Round(%g, %v) = %g, rational reference %g", narrow, x, m, direct, want)
		}
		if want := wide.RoundRat(r, RTO); !sameFloat(ro, want) {
			t.Fatalf("%v.Round(%g, rto) = %g, rational reference %g", wide, x, ro, want)
		}
	})
}

// FuzzRO34Rule fuzzes the rule verifiers rely on to check one kernel output
// against every target at once (oracle.Targets.Check): if two values round
// to the same bits under round-to-odd in a (w+2)-bit format, they round
// alike to every width from 10 to w with the same exponent width, under
// every standard mode and round-to-odd. The second value is the first
// nudged by a fuzzed number of float64 ulps, so the pair often shares a
// round-to-odd class and sometimes straddles a class boundary. The rule
// must also hold through FP34-sized formats for every width up to 32.
func FuzzRO34Rule(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1),
		0x1p-149, 0x1.8p-140, -0x1p-130, // binary32 subnormals
		0x1.fffffep+127, -0x1.fffffep+127, // binary32 MaxFinite
		0x1.fffffffp+127, 0x1p+128, 1e300, // above FP34's MaxFinite
		math.Inf(1), math.Inf(-1),
		1, 1.5, 0x1.0000010000001p+0,
	}
	for i, d := range seeds {
		f.Add(math.Float64bits(d), int32(i%3-1), uint8(22), uint8(3))
	}
	f.Fuzz(func(t *testing.T, dbits uint64, nudge int32, wSel, eSel uint8) {
		d := math.Float64frombits(dbits)
		v := math.Float64frombits(dbits + uint64(int64(nudge)))
		if math.IsNaN(d) || math.IsNaN(v) {
			t.Skip()
		}
		e := 5 + int(eSel)%7 // exponent widths 5..11
		lo := max(10, e+2)   // narrowest format with a significand bit
		w := lo + int(wSel)%(33-lo)
		checkBelow := func(wide Format, top int) {
			rd, rv := wide.Round(d, RTO), wide.Round(v, RTO)
			if !sameFloat(rd, rv) {
				return
			}
			for n := lo; n <= top; n++ {
				narrow := Format{Bits: n, ExpBits: e}
				for _, m := range AllModes {
					if a, b := narrow.Round(d, m), narrow.Round(v, m); !sameFloat(a, b) {
						t.Fatalf("%g and %g share %v round-to-odd value %g but round to %v under %v as %g and %g",
							d, v, wide, rd, narrow, m, a, b)
					}
				}
			}
		}
		checkBelow(Format{Bits: w + 2, ExpBits: e}, w)
		checkBelow(Format{Bits: 34, ExpBits: e}, 32)
	})
}
