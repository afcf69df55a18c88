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

// runUnit verifies one unit for every scheme of the plan. completed is
// false when the context was cancelled mid-range: the partial tallies are
// discarded and the unit reruns in full on resume, which is what keeps
// resumed totals bit-identical.
func (e *Engine) runUnit(ctx context.Context, u *Unit, randoms []float32) (res UnitResult, completed bool) {
	res = UnitResult{ID: u.ID, Schemes: make([]SchemeTally, len(e.Plan.Cfg.Schemes))}
	for i := range res.Schemes {
		res.Schemes[i].FirstIdx = math.MaxUint64
	}
	ofn, err := oracle.ParseFunc(u.Fn)
	if err != nil {
		// Plans are validated at construction; an unknown function here is a
		// programming error, not a data condition.
		panic(err)
	}

	var verify func(idx uint64, x float64)
	switch u.Lane {
	case LaneFloat32, LaneRandom:
		verify = e.widthsVerifier(u, ofn, &res)
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
	for i := range res.Schemes {
		if res.Schemes[i].Wrong == 0 {
			res.Schemes[i].FirstIdx = 0
		}
	}
	return res, true
}

// tally adds one check's outcome at unit-local index idx to s; first
// renders the failure when it is the unit's earliest for the scheme.
func (s *SchemeTally) tally(idx uint64, checked, wrong int, first func() string) {
	s.Checked += int64(checked)
	if wrong == 0 {
		return
	}
	s.Wrong += int64(wrong)
	if idx < s.FirstIdx {
		s.FirstIdx = idx
		s.First = first()
	}
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

// widthsVerifier checks every scheme's double-kernel result across every
// configured output width under all five IEEE rounding modes. Each input
// costs one oracle value, rounded once to round-to-odd (oracle.Expected):
// one comparison per scheme settles all of its targets unless it fails,
// and a failing scheme expands to per-target roundings of the same value.
// On the random lane, a fixed sample (every randomExpandEvery-th input of
// the sequence) expands for every scheme, an independent check that the
// shortcut is applied correctly; the tallies are the same either way.
func (e *Engine) widthsVerifier(u *Unit, ofn oracle.Func, res *UnitResult) func(uint64, float64) {
	impls := make([]func(float32) float64, len(e.Plan.Cfg.Schemes))
	for i, scheme := range e.Plan.Cfg.Schemes {
		impl, err := e.implFor(u.Fn, scheme)
		if err != nil {
			panic(err)
		}
		impls[i] = impl
	}
	ts := oracle.Targets{Widths: e.Plan.Cfg.Widths, ExpBits: 8, Modes: fp.StandardModes}
	expanded := ts
	expanded.Expand = true
	var v oracle.Value
	var want oracle.Expected
	return func(idx uint64, fx float64) {
		if skippable(ofn, fx) {
			return
		}
		v.Reset(ofn, fx)
		res.Queries++
		check := &ts
		if u.Lane == LaneRandom && (u.Lo+idx)%randomExpandEvery == 0 {
			check = &expanded
		}
		check.Expect(&want, &v)
		x := float32(fx)
		for i, impl := range impls {
			t := want.Check(impl(x))
			res.Schemes[i].tally(idx, t.Checked, t.Wrong, func() string {
				return fmt.Sprintf("%s w=%d %v: got %g want %g",
					callString(ofn.String(), fx), t.First.Bits, t.First.Mode, t.First.Got, t.First.Want)
			})
		}
	}
}

// bf16Verifier checks every scheme's bfloat16 serving kernel — the full
// kernel's double rounded once to bfloat16 — against the oracle's RNE
// rounding of one value per input, at all 2^16 representable patterns.
func (e *Engine) bf16Verifier(u *Unit, ofn oracle.Func, res *UnitResult) func(uint64, float64) {
	bf16, _ := libm.PrecSpecByName("bf16")
	keys := make([]string, len(e.Plan.Cfg.Schemes))
	kerns := make([]func(float64) float64, len(keys))
	for i, scheme := range e.Plan.Cfg.Schemes {
		full := libm.GeneratedFuncs[u.Fn+"/"+scheme]
		if full == nil {
			panic(fmt.Sprintf("campaign: no generated kernel %q", u.Fn+"/"+scheme))
		}
		keys[i] = u.Fn + "/" + scheme + "/bf16"
		kerns[i] = bf16.Kernel(full)
	}
	var val oracle.Value
	return func(idx uint64, v float64) {
		if skippable(ofn, v) {
			return
		}
		val.Reset(ofn, v)
		res.Queries++
		want := val.Round(fp.Bfloat16, fp.RNE)
		for i, kern := range kerns {
			got := kern(v)
			wrong := 0
			if math.Float64bits(got) != math.Float64bits(want) {
				wrong = 1
			}
			res.Schemes[i].tally(idx, 1, wrong, func() string {
				return fmt.Sprintf("%s: got %g want %g", callString(keys[i], v), got, want)
			})
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
