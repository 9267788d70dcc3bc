package lp

import (
	"math/rand"
	"testing"
)

// coverModel builds a random covering program: min c.x with c_j in
// [1, 2) over rows sum_{j in S_i} a_ij x_j >= 1, each S_i a random set of
// perRow distinct columns with a_ij in [0.5, 1.5). Every row is a >=
// row with a positive right-hand side, so a cold solve starts every
// row on its artificial and phase 1 has to drive them all out.
func coverModel(rng *rand.Rand, rows, cols, perRow int) *Model {
	mdl := NewModel()
	for j := 0; j < cols; j++ {
		mdl.AddVar(1+rng.Float64(), "")
	}
	terms := make([]Term, perRow)
	for i := 0; i < rows; i++ {
		for k, j := range rng.Perm(cols)[:perRow] {
			terms[k] = Term{Var: j, Coef: 0.5 + rng.Float64()}
		}
		mdl.AddRow(GE, 1, terms...)
	}
	return mdl
}

// BenchmarkCoverPhase1 solves a 700-row covering program cold: the
// simplex starts every row on an artificial. Phase 1 prices with a dense y (every basic artificial
// costs 1): the Dantzig refill keeps its column scan there (y has
// ~540 of 700 rows nonzero), BTRAN scans long etas whole and FTRAN
// scans w instead of marking it.
func BenchmarkCoverPhase1(b *testing.B) {
	mdl := coverModel(rand.New(rand.NewSource(1)), 700, 1400, 4)
	ws := NewWorkspace()
	iters := 0
	for i := 0; i < b.N; i++ {
		sol, err := mdl.SolveWith(ws)
		if err != nil || sol.Status != Optimal {
			b.Fatalf("%v %v", err, sol)
		}
		iters = sol.Iterations
	}
	b.ReportMetric(float64(iters), "simplex-iters")
}
