package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
)

// Eval computes the implementation's double result for input x, including
// every special path: the returned double lies in the rounding interval of
// the round-to-odd target result, so rounding it to any format with
// Input.ExpBits+2 .. Input.Bits bits under any standard mode yields the
// correctly rounded value.
func (r *Result) Eval(x float64) float64 {
	if v, done := r.edgeResult(x); done {
		return v
	}
	if y, ok := r.Specials[math.Float64bits(x)]; ok {
		return y
	}
	rv, key := r.red.Reduce(x)
	if pv, structural := r.red.ExactPoint(rv); structural {
		return r.red.Compensate(pv, key)
	}
	p := r.PolyEval(rv)
	return r.red.Compensate(p, key)
}

// edgeResult handles Eval's input-independent special paths — NaN/infinity
// propagation, exact zeros, the saturation cuts and the tiny plateaus. The
// bool reports whether the value is final.
func (r *Result) edgeResult(x float64) (float64, bool) {
	if math.IsNaN(x) {
		return math.NaN(), true
	}
	if r.Fn.IsTrig() {
		if math.IsInf(x, 0) {
			return math.NaN(), true
		}
		if x == 0 {
			if r.Fn == oracle.Cospi {
				return 1, true
			}
			return x, true // sinpi preserves the sign of zero
		}
		// cospi's flat-top plateau around zero (see FindDomain).
		if r.Dom.TinyLo <= x && x <= r.Dom.TinyHi {
			return r.Dom.TinyHiVal, true
		}
	} else if r.Fn.IsLog() {
		switch {
		case x < 0 || math.IsInf(x, -1):
			return math.NaN(), true
		case x == 0:
			return math.Inf(-1), true
		case math.IsInf(x, 1):
			return math.Inf(1), true
		}
	} else {
		switch {
		case math.IsInf(x, 1):
			return math.Inf(1), true
		case math.IsInf(x, -1):
			return 0, true
		case x == 0:
			return 1, true
		case x <= r.Dom.Lo:
			return r.Dom.LoVal, true
		case x >= r.Dom.Hi:
			return r.Dom.HiVal, true
		case x < 0 && x >= r.Dom.TinyLo:
			return r.Dom.TinyLoVal, true
		case x > 0 && x <= r.Dom.TinyHi:
			return r.Dom.TinyHiVal, true
		}
	}
	return 0, false
}

// PolyEval evaluates the piecewise polynomial at the reduced input.
func (r *Result) PolyEval(rv float64) float64 {
	piece := &r.Pieces[0]
	for i := 1; i < len(r.Pieces); i++ {
		if rv >= r.Pieces[i].Lo {
			piece = &r.Pieces[i]
		}
	}
	return piece.Eval.Eval(rv)
}

// RoundTo rounds the implementation's result for x to the requested format
// and mode — the user-facing double-rounding step of RLibm-ALL.
func (r *Result) RoundTo(x float64, t fp.Format, m fp.Mode) float64 {
	return t.Round(r.Eval(x), m)
}

// MaxDegree returns the highest polynomial degree across pieces.
func (r *Result) MaxDegree() int {
	d := 0
	for _, p := range r.Pieces {
		if pd := p.Coeffs.Trim().Degree(); pd > d {
			d = pd
		}
	}
	return d
}

// Describe summarizes the result in the shape of the paper's Table 1 row
// fragment: piece count, per-piece degrees, special-input count.
func (r *Result) Describe() string {
	degs := ""
	for i, p := range r.Pieces {
		if i > 0 {
			degs += ","
		}
		degs += fmt.Sprintf("%d", p.Coeffs.Trim().Degree())
	}
	return fmt.Sprintf("%v/%v: %d piece(s), degree(s) %s, %d special input(s)",
		r.Fn, r.Scheme, len(r.Pieces), degs, len(r.Specials))
}

// VerifyReport is the outcome of a correctness sweep.
type VerifyReport struct {
	Checked int
	Wrong   int
	// FirstWrong records the first failing (input, format bits, mode).
	FirstWrong string
}

// Verify checks the implementation against the oracle for every enumerated
// input of the verification format `inputs` (stride-sampled), across the
// given output widths and rounding modes. It is the equivalent of the
// artifact's correctness_test. The sweep is sharded across CPUs; each input
// is one oracle.Targets check, which settles every (width, mode) pair with
// one round-to-odd comparison unless that comparison fails. FirstWrong
// names the wrong input with the lowest bit pattern, whatever the CPU
// count.
func (r *Result) Verify(inputs fp.Format, stride uint64, widths []int, modes []fp.Mode) VerifyReport {
	ts := oracle.Targets{Widths: widths, ExpBits: r.Input.ExpBits, Modes: modes, SignlessZero: true}
	nCPU := runtime.GOMAXPROCS(0)
	reports := make([]VerifyReport, nCPU)
	firstAt := make([]uint64, nCPU) // bit pattern of each shard's first wrong input
	var wg sync.WaitGroup
	n := inputs.Count()
	for shard := 0; shard < nCPU; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rep := &reports[shard]
			for b := uint64(shard) * stride; b < n; b += stride * uint64(nCPU) {
				x := inputs.FromBits(b)
				if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
					continue
				}
				if r.Fn.IsLog() && x <= 0 {
					continue
				}
				t := ts.Check(r.Fn, x, r.Eval(x))
				rep.Checked += t.Checked
				if t.Wrong > 0 {
					if rep.Wrong == 0 {
						firstAt[shard] = b
						rep.FirstWrong = fmt.Sprintf("%v(%g) width %d mode %v: got %g want %g",
							r.Fn, x, t.First.Bits, t.First.Mode, t.First.Got, t.First.Want)
					}
					rep.Wrong += t.Wrong
				}
			}
		}(shard)
	}
	wg.Wait()
	var total VerifyReport
	first := uint64(math.MaxUint64)
	for shard, rep := range reports {
		total.Checked += rep.Checked
		total.Wrong += rep.Wrong
		if rep.Wrong > 0 && firstAt[shard] < first {
			first = firstAt[shard]
			total.FirstWrong = rep.FirstWrong
		}
	}
	return total
}
