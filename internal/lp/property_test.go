package lp

import (
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// dualTol is the tolerance for the duality properties: LP quantities
// here are O(10), so a relative testutil.Near at 1e-6 comfortably
// covers simplex round-off while still catching sign or indexing bugs.
const dualTol = 1e-6

// densify expands a model row into a dense coefficient vector.
func densify(m *Model, i int) []float64 {
	dense := make([]float64, m.NumVars())
	for _, t := range m.rows[i].terms {
		dense[t.Var] += t.Coef
	}
	return dense
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// checkPrimalFeasible asserts every row of the model holds at X within
// feasTol, and that X respects the implicit non-negativity bounds.
func checkPrimalFeasible(t *testing.T, m *Model, x []float64) {
	t.Helper()
	for j, v := range x {
		if v < -feasTol {
			t.Errorf("x[%d] = %v violates non-negativity", j, v)
		}
	}
	for i := range m.rows {
		ax := dot(densify(m, i), x)
		rhs := m.rows[i].rhs
		var residual float64
		switch m.rows[i].sense {
		case LE:
			residual = ax - rhs
		case GE:
			residual = rhs - ax
		case EQ:
			if residual = ax - rhs; residual < 0 {
				residual = -residual
			}
		}
		if residual > feasTol*(1+absf(rhs)) {
			t.Errorf("row %d (%v %v): a.x = %v, residual %v > feasTol", i, m.rows[i].sense, rhs, ax, residual-feasTol)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// checkStrongDuality asserts the duals price out the objective:
// y.b equals the optimal objective, and the duals are feasible for the
// dual program (correct signs, no profitable reduced cost).
func checkStrongDuality(t *testing.T, m *Model, sol *Solution) {
	t.Helper()
	b := make([]float64, len(m.rows))
	for i := range m.rows {
		b[i] = m.rows[i].rhs
	}
	if yb := dot(sol.Dual, b); !testutil.Near(yb, sol.Objective, dualTol) {
		t.Errorf("strong duality: y.b = %v, objective = %v", yb, sol.Objective)
	}
	for i := range m.rows {
		y := sol.Dual[i]
		switch m.rows[i].sense {
		case LE: // y <= 0 for min, >= 0 for max (the package convention)
			if m.maximize && y < -dualTol || !m.maximize && y > dualTol {
				t.Errorf("dual[%d] = %v has the wrong sign for a %v row", i, y, LE)
			}
		case GE:
			if m.maximize && y > dualTol || !m.maximize && y < -dualTol {
				t.Errorf("dual[%d] = %v has the wrong sign for a %v row", i, y, GE)
			}
		}
	}
	// Reduced costs: no variable prices out better than its objective
	// coefficient (c_j - y.A_j >= 0 for min, <= 0 for max).
	for j := 0; j < m.NumVars(); j++ {
		yA := 0.0
		for i := range m.rows {
			yA += sol.Dual[i] * densify(m, i)[j]
		}
		red := m.obj[j] - yA
		if m.maximize && red > dualTol || !m.maximize && red < -dualTol {
			t.Errorf("reduced cost of var %d = %v has the wrong sign", j, red)
		}
	}
}

// randomPackingModel builds a random bounded, feasible maximisation:
// max c.x over Ax <= b with A, b >= 0 and a budget row covering every
// variable. The origin is always feasible and the budget row bounds
// the feasible region, so the status must come back Optimal.
func randomPackingModel(rng *rand.Rand) *Model {
	m := NewModel()
	m.Maximize()
	n := 2 + rng.Intn(8)
	for j := 0; j < n; j++ {
		m.AddVar(rng.Float64()*4-1, "") // mixed-sign objective
	}
	budget := make([]Term, n)
	for j := 0; j < n; j++ {
		budget[j] = Term{Var: j, Coef: 1}
	}
	m.AddRow(LE, 1+rng.Float64()*9, budget...)
	for r, rows := 0, 1+rng.Intn(9); r < rows; r++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, Term{Var: j, Coef: rng.Float64() * 2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: 1})
		}
		m.AddRow(LE, 0.5+rng.Float64()*4.5, terms...)
	}
	return m
}

// randomCoveringModel builds a random feasible minimisation:
// min c.x, c >= 0, over Ax >= b with A >= 0 and every row non-empty,
// so scaling x up always reaches feasibility and zero bounds the
// objective below. The status must come back Optimal.
func randomCoveringModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 2 + rng.Intn(8)
	for j := 0; j < n; j++ {
		m.AddVar(0.1+rng.Float64()*2, "")
	}
	for r, rows := 0, 2+rng.Intn(9); r < rows; r++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{Var: j, Coef: 0.1 + rng.Float64()*2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: 1})
		}
		m.AddRow(GE, 0.5+rng.Float64()*4.5, terms...)
	}
	return m
}

// TestPropertyPackingModels checks primal feasibility and strong
// duality over a corpus of random bounded maximisation programs.
func TestPropertyPackingModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m := randomPackingModel(rng)
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (origin is feasible, budget row bounds)", trial, sol.Status)
		}
		checkPrimalFeasible(t, m, sol.X)
		checkStrongDuality(t, m, sol)
	}
}

// TestPropertyCoveringModels does the same for random feasible
// minimisation programs with >= rows, the shape of the paper's
// steady-state LPs.
func TestPropertyCoveringModels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		m := randomCoveringModel(rng)
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (covering LPs are feasible and bounded)", trial, sol.Status)
		}
		checkPrimalFeasible(t, m, sol.X)
		checkStrongDuality(t, m, sol)
	}
}

// TestPropertyMaxDualsColdWarmPresolved property-tests the documented
// dual-sign convention on maximisation models (y >= 0 for <= rows,
// objective negated back) on both solve paths: the cold simplex and a
// warm re-solve of a grown model. Only minimisation duals were
// property-tested before, so a sign slip on the max-negation path — in
// extract or in the warm dual cleanup — had no coverage.
func TestPropertyMaxDualsColdWarmPresolved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	warmHits := 0
	for trial := 0; trial < 40; trial++ {
		m := randomPackingModel(rng)

		ws := NewWorkspace()
		cold, err := m.SolveWith(ws)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		if cold.Status != Optimal {
			t.Fatalf("trial %d cold: status %v", trial, cold.Status)
		}
		checkPrimalFeasible(t, m, cold.X)
		checkStrongDuality(t, m, cold)

		// Warm path: tighten the program with an appended row and
		// re-solve from the captured basis.
		var terms []Term
		for j := 0; j < m.NumVars(); j++ {
			terms = append(terms, Term{Var: j, Coef: 1})
		}
		m.AddRow(LE, 0.25+0.5*sum(cold.X), terms...)
		warm, err := m.SolveFrom(ws, cold.Basis)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("trial %d warm: status %v", trial, warm.Status)
		}
		checkPrimalFeasible(t, m, warm.X)
		checkStrongDuality(t, m, warm)
		if warm.WarmStarted {
			warmHits++
		}
	}
	if warmHits == 0 {
		t.Fatal("no trial exercised the warm path; the dual check never ran warm")
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// TestPathologicalStatuses pins the Infeasible/Unbounded verdicts on
// hand-built degenerate programs; TestPresolveDetectsStatuses pins the
// ones on emptied rows and columns.
func TestPathologicalStatuses(t *testing.T) {
	t.Run("contradictory equalities", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(1, "x")
		y := m.AddVar(1, "y")
		m.AddRow(EQ, 1, Term{x, 1}, Term{y, 1})
		m.AddRow(EQ, 2, Term{x, 1}, Term{y, 1})
		sol, err := m.Solve()
		if err != nil || sol.Status != Infeasible {
			t.Fatalf("got %v (err %v), want infeasible", sol, err)
		}
	})
	t.Run("negative upper bound", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(1, "x")
		m.AddRow(LE, -1, Term{x, 1}) // x <= -1 contradicts x >= 0
		sol, err := m.Solve()
		if err != nil || sol.Status != Infeasible {
			t.Fatalf("got %v (err %v), want infeasible", sol, err)
		}
	})
	t.Run("unconstrained maximisation", func(t *testing.T) {
		m := NewModel()
		m.Maximize()
		x := m.AddVar(1, "x")
		m.AddRow(GE, 1, Term{x, 1})
		sol, err := m.Solve()
		if err != nil || sol.Status != Unbounded {
			t.Fatalf("got %v (err %v), want unbounded", sol, err)
		}
	})
	t.Run("ray escapes a finite-looking box", func(t *testing.T) {
		// y is capped but x only appears with negative coefficients, so
		// max x + y runs off along the x axis.
		m := NewModel()
		m.Maximize()
		x := m.AddVar(1, "x")
		y := m.AddVar(1, "y")
		m.AddRow(LE, 5, Term{y, 1})
		m.AddRow(LE, 3, Term{x, -1}, Term{y, 1})
		sol, err := m.Solve()
		if err != nil || sol.Status != Unbounded {
			t.Fatalf("got %v (err %v), want unbounded", sol, err)
		}
	})
}
