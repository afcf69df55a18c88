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
	// Queries counts the oracle answers the check asked for, from the cache
	// or computed: one for the round-to-odd comparison, plus one per target
	// when the check expands.
	Queries int
	// First is the first wrong target, widths before modes, when Wrong > 0.
	First Miss
}

// Check verifies the kernel output d for f(x) on every target. c, when
// non-nil, memoizes the oracle's answers.
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
func (ts *Targets) Check(c *Cache, f Func, x, d float64) Tally {
	var t Tally
	if len(ts.Widths) == 0 || len(ts.Modes) == 0 {
		return t
	}
	q := query{c: c, f: f, x: x}
	if !ts.Expand {
		wide := ts.wide()
		if sameFloat(wide.Round(d, fp.RTO), q.round(wide, fp.RTO)) {
			t.Checked = len(ts.Widths) * len(ts.Modes)
			t.Queries = q.n
			return t
		}
	}
	for _, w := range ts.Widths {
		tf := fp.Format{Bits: w, ExpBits: ts.ExpBits}
		for _, m := range ts.Modes {
			got := tf.Round(d, m)
			want := q.round(tf, m)
			t.Checked++
			if ts.SignlessZero && got == 0 && want == 0 {
				continue
			}
			if !sameFloat(got, want) {
				if t.Wrong == 0 {
					t.First = Miss{Bits: w, Mode: m, Got: got, Want: want}
				}
				t.Wrong++
			}
		}
	}
	t.Queries = q.n
	return t
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

// query answers one check's oracle questions about f(x): from the cache
// when it has them, otherwise from one Value evaluated on first need and
// reused for every later (format, mode).
type query struct {
	c    *Cache
	f    Func
	x    float64
	val  Value
	have bool
	n    int
}

func (q *query) round(t fp.Format, m fp.Mode) float64 {
	q.n++
	if q.c != nil {
		if y, ok := q.c.Lookup(q.f, q.x, t, m); ok {
			return y
		}
	}
	if !q.have {
		q.val.init(q.f, q.x, true)
		q.have = true
	}
	y := q.val.Round(t, m)
	if q.c != nil {
		q.c.Insert(q.f, q.x, t, m, y)
	}
	return y
}
