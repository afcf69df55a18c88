package lp

import "math/big"

// Constraint bounds the polynomial output at one reduced input:
// Lo <= P(X) <= Hi. A crossed constraint (Lo > Hi) is an empty interval,
// which no polynomial meets.
type Constraint struct {
	X      *big.Rat
	Lo, Hi *big.Rat
}

// key is the dominance-pruning identity: the reduced input.
func (c *Constraint) key() string { return c.X.RatString() }

// CheckPoly reports whether the exact rational polynomial satisfies every
// constraint.
func CheckPoly(coeffs []*big.Rat, cons []Constraint) bool {
	for _, c := range cons {
		v := EvalRat(coeffs, c.X)
		if v.Cmp(c.Lo) < 0 || v.Cmp(c.Hi) > 0 {
			return false
		}
	}
	return true
}

// EvalRat evaluates the rational polynomial at x (Horner, exact).
func EvalRat(coeffs []*big.Rat, x *big.Rat) *big.Rat {
	v := new(big.Rat)
	for i := len(coeffs) - 1; i >= 0; i-- {
		v.Mul(v, x)
		v.Add(v, coeffs[i])
	}
	return v
}
