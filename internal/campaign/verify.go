package campaign

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/oracle"
)

// ctxCheckMask: workers poll ctx between inputs at this granularity — often
// enough that a cancelled campaign stops within milliseconds, rarely enough
// that the poll never shows up in a profile.
const ctxCheckMask = 0xff

// implFor resolves the double-precision implementation one float32/random
// unit verifies: the data-driven kernel by default, the straight-line
// generated backend with UseFuncs.
func (e *Engine) implFor(fn, scheme string) (func(float32) float64, error) {
	if e.implOverride != nil {
		if impl := e.implOverride(fn, scheme); impl != nil {
			return impl, nil
		}
	}
	s, err := parseScheme(scheme)
	if err != nil {
		return nil, err
	}
	if e.Plan.Cfg.UseFuncs {
		gen := libm.GeneratedFuncs[fn+"/"+scheme]
		if gen == nil {
			return nil, fmt.Errorf("campaign: no generated backend for %s/%s", fn, scheme)
		}
		return func(x float32) float64 { return gen(float64(x)) }, nil
	}
	for _, f := range libm.Funcs {
		if f.Name == fn {
			double := f.Double
			return func(x float32) float64 { return double(x, s) }, nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown function %q", fn)
}

// runUnit verifies one unit. completed is false when the context was
// cancelled mid-range: the partial tally is discarded and the unit reruns
// in full on resume, which is what keeps resumed totals bit-identical.
func (e *Engine) runUnit(ctx context.Context, u *Unit, randoms []float32) (res UnitResult, completed bool) {
	res = UnitResult{ID: u.ID, FirstIdx: math.MaxUint64}
	ofn, err := oracle.ParseFunc(u.Fn)
	if err != nil {
		// Plans are validated at construction; an unknown function here is a
		// programming error, not a data condition.
		panic(err)
	}

	var verify func(idx uint64, x float64)
	switch u.Lane {
	case LaneFloat32, LaneRandom:
		impl, err := e.implFor(u.Fn, u.Scheme)
		if err != nil {
			panic(err)
		}
		verify = e.widthsVerifier(u, ofn, impl, &res)
	case LaneBf16:
		verify = e.bf16Verifier(u, ofn, &res)
	default:
		panic(fmt.Sprintf("campaign: unit %d has invalid lane %d", u.ID, u.Lane))
	}

	n := uint64(0)
	switch u.Lane {
	case LaneRandom:
		for i := u.Lo; i < u.Hi; i++ {
			if n&ctxCheckMask == 0 && ctx.Err() != nil {
				return res, false
			}
			n++
			verify(i-u.Lo, float64(randoms[i]))
		}
	case LaneBf16:
		for b := u.Lo; b < u.Hi; b++ {
			if n&ctxCheckMask == 0 && ctx.Err() != nil {
				return res, false
			}
			n++
			verify(b-u.Lo, fp.Bfloat16.FromBits(b))
		}
	default:
		for bits := u.Lo; bits < u.Hi; bits += u.Stride {
			if n&ctxCheckMask == 0 && ctx.Err() != nil {
				return res, false
			}
			n++
			verify((bits-u.Lo)/u.Stride, float64(math.Float32frombits(uint32(bits))))
		}
	}
	if res.Wrong == 0 {
		res.FirstIdx = 0
	}
	return res, true
}

// skippable reports inputs no lane verifies: NaN/Inf/zero propagate through
// IEEE special-case paths the battery covers elsewhere, and non-positive
// log inputs have symbolic results.
func skippable(ofn oracle.Func, fx float64) bool {
	if math.IsNaN(fx) || math.IsInf(fx, 0) || fx == 0 {
		return true
	}
	return ofn.IsLog() && fx <= 0
}

// randomExpandEvery spaces the random lane's cross-check: the inputs whose
// index in the seeded sequence is a multiple of it are compared target by
// target even when the round-to-odd comparison agrees.
const randomExpandEvery = 64

// widthsVerifier checks one double-kernel result across every configured
// output width under all five IEEE rounding modes (oracle.Targets.Check):
// one round-to-odd comparison per input settles them all unless it fails.
// On the random lane, a fixed sample (every randomExpandEvery-th input of
// the sequence) expands to the per-target comparison, an independent check
// that the shortcut is applied correctly; the tallies are the same either
// way, only the oracle queries differ.
func (e *Engine) widthsVerifier(u *Unit, ofn oracle.Func, impl func(float32) float64, res *UnitResult) func(uint64, float64) {
	ts := oracle.Targets{Widths: e.Plan.Cfg.Widths, ExpBits: 8, Modes: fp.StandardModes}
	expanded := ts
	expanded.Expand = true
	cache := e.Cache
	return func(idx uint64, fx float64) {
		if skippable(ofn, fx) {
			return
		}
		check := &ts
		if u.Lane == LaneRandom && (u.Lo+idx)%randomExpandEvery == 0 {
			check = &expanded
		}
		t := check.Check(cache, ofn, fx, impl(float32(fx)))
		res.Checked += int64(t.Checked)
		res.Queries += int64(t.Queries)
		if t.Wrong > 0 {
			res.Wrong += int64(t.Wrong)
			if idx < res.FirstIdx {
				res.FirstIdx = idx
				res.First = fmt.Sprintf("%s w=%d %v: got %g want %g",
					callString(ofn.String(), fx), t.First.Bits, t.First.Mode, t.First.Got, t.First.Want)
			}
		}
	}
}

// bf16Verifier checks the progressive prefix kernel's bfloat16 result
// against the oracle's RNE rounding — the per-request narrow-precision
// serving path, proven at all 2^16 representable patterns.
func (e *Engine) bf16Verifier(u *Unit, ofn oracle.Func, res *UnitResult) func(uint64, float64) {
	key := u.Fn + "/" + u.Scheme + "/bf16"
	kern := libm.GeneratedPrefixFuncs[key]
	if kern == nil {
		panic(fmt.Sprintf("campaign: no prefix kernel %q", key))
	}
	cache := e.Cache
	return func(idx uint64, v float64) {
		if skippable(ofn, v) {
			return
		}
		got := kern(v)
		var want float64
		hit := false
		if cache != nil {
			want, hit = cache.Lookup(ofn, v, fp.Bfloat16, fp.RNE)
		}
		if !hit {
			want = oracle.Compute(ofn, v).Round(fp.Bfloat16, fp.RNE)
			if cache != nil {
				cache.Insert(ofn, v, fp.Bfloat16, fp.RNE, want)
			}
		}
		res.Checked++
		res.Queries++
		if math.Float64bits(got) != math.Float64bits(want) {
			res.Wrong++
			if idx < res.FirstIdx {
				res.FirstIdx = idx
				res.First = fmt.Sprintf("%s: got %g want %g", callString(key, v), got, want)
			}
		}
	}
}

// callString spells a failing call so it pastes straight into a CLI or a
// test: the input's shortest float32 decimal, then its bit pattern.
func callString(name string, x float64) string {
	return fmt.Sprintf("%s(%g) 0x%08x", name, float32(x), math.Float32bits(float32(x)))
}

// drawRandoms materializes the seeded random-input sequence shared by every
// combo's random lane. Deterministic in (seed, n): the plan hash covers
// both, so a resumed campaign and a reproduced failure see the same inputs.
func drawRandoms(seed int64, n int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(rng.Uint32())
	}
	return out
}
