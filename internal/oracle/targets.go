package oracle

import (
	"rlibm/internal/fp"
)

// Targets is the set of output formats a verifier checks one kernel output
// against: every width in Widths, with ExpBits exponent bits, under every
// mode in Modes.
type Targets struct {
	Widths  []int
	ExpBits int
	Modes   []fp.Mode
	// Expand rounds and compares every target even when the round-to-odd
	// comparison would settle them all. The campaign's random lane sets it
	// on a fixed sample of its inputs, so every production run also
	// cross-checks the shortcut.
	Expand bool
	// SignlessZero accepts a zero result of either sign when the oracle's
	// value is zero too. The sign of an exactly-zero sin(pi*n) is a
	// convention (IEEE alternates it with n; the exact-case oracle uses +0),
	// not a rounding property.
	SignlessZero bool
}

// Miss is one target on which the kernel output rounds differently from
// the function's value.
type Miss struct {
	Bits      int
	Mode      fp.Mode
	Got, Want float64
}

// Tally is the outcome of one Check.
type Tally struct {
	// Checked counts targets, Wrong the wrong ones among them.
	Checked, Wrong int
	// Queries counts the oracle answers the check asked for: one for the
	// round-to-odd comparison, plus one per target when the check expands.
	// Expected.Check asks none.
	Queries int
	// First is the first wrong target, widths before modes, when Wrong > 0.
	First Miss
}

// Check verifies the kernel output d for f(x) on every target.
//
// It first rounds d and f(x) once each to round-to-odd in the format two
// bits wider than the widest target (FP34 when the widest is binary32's 32
// bits). By the RLibm-ALL theorem, when the two agree they round alike to
// every narrower format with the same exponent width under every mode of
// fp.AllModes (FuzzRO34Rule in internal/fp fuzzes this), so every target
// counts as correct. On a disagreement, or with Expand, it rounds both
// sides to each target and compares them one by one, which is what reports
// the wrong targets. Non-finite and zero outputs need no special case: they
// never match a nonzero oracle value in round-to-odd space, so they take
// the per-target comparison.
func (ts *Targets) Check(f Func, x, d float64) Tally {
	var t Tally
	if len(ts.Widths) == 0 || len(ts.Modes) == 0 {
		return t
	}
	q := query{f: f, x: x}
	if !ts.Expand {
		wide := ts.wide()
		if sameFloat(wide.Round(d, fp.RTO), q.round(wide, fp.RTO)) {
			t.Checked = len(ts.Widths) * len(ts.Modes)
			t.Queries = q.n
			return t
		}
	}
	t = ts.compare(d, func(_ int, tf fp.Format, m fp.Mode) float64 { return q.round(tf, m) })
	t.Queries = q.n
	return t
}

// compare rounds d to every target, widths before modes, and compares it
// with want's answer for the same target; i numbers the targets in that
// order.
func (ts *Targets) compare(d float64, want func(i int, tf fp.Format, m fp.Mode) float64) Tally {
	var t Tally
	i := 0
	for _, w := range ts.Widths {
		tf := fp.Format{Bits: w, ExpBits: ts.ExpBits}
		for _, m := range ts.Modes {
			got := tf.Round(d, m)
			y := want(i, tf, m)
			i++
			t.Checked++
			if ts.SignlessZero && got == 0 && y == 0 {
				continue
			}
			if !sameFloat(got, y) {
				if t.Wrong == 0 {
					t.First = Miss{Bits: w, Mode: m, Got: got, Want: y}
				}
				t.Wrong++
			}
		}
	}
	return t
}

// Expected is one input's oracle side of a check, prepared from a Value
// that is already computed: the value rounded once to the round-to-odd
// format of the shortcut, and on the first check that expands, to every
// target. Any number of kernel outputs for the same input (one per scheme,
// say) are then checked without asking the oracle again. Reuse one Expected across inputs. Not safe for concurrent use.
type Expected struct {
	ts   *Targets
	v    *Value
	wide fp.Format
	ro   float64   // v in wide under round-to-odd; unused with Expand
	want []float64 // v per target, in compare order; valid when expanded
	// expanded reports that want holds this input's per-target roundings.
	expanded bool
}

// Expect prepares e to check kernel outputs for v's input against ts. v
// must not change while e is in use: every per-target rounding comes from
// it.
func (ts *Targets) Expect(e *Expected, v *Value) {
	e.ts, e.v, e.expanded = ts, v, false
	if len(ts.Widths) == 0 || len(ts.Modes) == 0 || ts.Expand {
		return
	}
	e.wide = ts.wide()
	e.ro = v.Round(e.wide, fp.RTO)
}

// Check verifies the kernel output d on every target, exactly like
// Targets.Check of the same input, against the prepared value. Its Queries
// stay 0: the caller computed the value, once for all of its checks.
func (e *Expected) Check(d float64) Tally {
	ts := e.ts
	if len(ts.Widths) == 0 || len(ts.Modes) == 0 {
		return Tally{}
	}
	if !ts.Expand && sameFloat(e.wide.Round(d, fp.RTO), e.ro) {
		return Tally{Checked: len(ts.Widths) * len(ts.Modes)}
	}
	if !e.expanded {
		e.want = e.want[:0]
		for _, w := range ts.Widths {
			tf := fp.Format{Bits: w, ExpBits: ts.ExpBits}
			for _, m := range ts.Modes {
				e.want = append(e.want, e.v.Round(tf, m))
			}
		}
		e.expanded = true
	}
	return ts.compare(d, func(i int, _ fp.Format, _ fp.Mode) float64 { return e.want[i] })
}

// wide returns the round-to-odd format of the shortcut: two bits wider
// than the widest target, with the targets' exponent width.
func (ts *Targets) wide() fp.Format {
	n := 0
	for _, w := range ts.Widths {
		n = max(n, w)
	}
	return fp.Format{Bits: n + 2, ExpBits: ts.ExpBits}
}

// query answers one check's oracle questions about f(x) from one Value,
// evaluated on first need and reused for every later (format, mode).
type query struct {
	f    Func
	x    float64
	val  Value
	have bool
	n    int
}

func (q *query) round(t fp.Format, m fp.Mode) float64 {
	q.n++
	if !q.have {
		q.val.init(q.f, q.x, true)
		q.have = true
	}
	return q.val.Round(t, m)
}
