// Package lp implements an exact rational linear-programming solver — the
// role SoPlex plays in the paper's prototype. The RLibm formulation is a
// feasibility system: find polynomial coefficients C such that
//
//	l_i  <=  C_0 + C_1*x_i + ... + C_d*x_i^d  <=  h_i
//
// for every (reduced input, reduced interval) constraint. Every coefficient
// it returns is an exact rational, so feasibility answers are exact;
// floating point enters the pipeline only when the generator rounds the
// solution's coefficients to double — the non-linear step the
// generate–check–constrain loop absorbs.
//
// The search for the optimum runs in float64 first (float.go): a dual
// simplex over the nc+1 structural columns finds an optimal basis, and
// big.Rat arithmetic then certifies it exactly (primal feasibility of every
// row and strictly positive dual multipliers, which make the optimum
// unique). When the certificate fails, the exact continuation (exact.go)
// runs the same dual simplex on the same small basis in big.Rat until it
// reaches an exact verdict. Every path returns one defined point: the
// lex-min optimum (maximize the margin, then minimize C_0, C_1, ... in
// turn, with any coefficient the constraints leave free set to 0).
//
// The package's entry point is the incremental Solver, which keeps the
// optimal basis alive across the loop's repeated solves and reoptimizes
// with the dual simplex (see solver.go). One-shot callers construct a
// Solver, add their constraints and Resolve once.
package lp
