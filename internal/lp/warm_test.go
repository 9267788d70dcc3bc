package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestWarmStartAfterCutRow pins the canonical cutting-plane flow: solve,
// append a violated inequality, re-solve from the previous basis. The
// dual simplex must repair feasibility without a cold restart.
func TestWarmStartAfterCutRow(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(2, "x")
	y := m.AddVar(1, "y")
	m.AddRow(LE, 4, Term{x, 1})
	m.AddRow(LE, 3, Term{y, 1})
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 11, 1e-8) {
		t.Fatalf("cold: %v obj %v, want 11", sol.Status, sol.Objective)
	}
	// Cut off the optimum (4, 3): now the unique optimum is (4, 1).
	m.AddRow(LE, 5, Term{x, 1}, Term{y, 1})
	warm, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Objective, 9, 1e-8) {
		t.Fatalf("warm: %v obj %v, want 9", warm.Status, warm.Objective)
	}
	if !warm.WarmStarted {
		t.Error("solve did not take the warm path")
	}
	if warm.DualIterations == 0 {
		t.Error("expected dual-simplex cleanup pivots after a violated cut")
	}
	if !approx(warm.X[x], 4, 1e-8) || !approx(warm.X[y], 1, 1e-8) {
		t.Errorf("X = %v, want (4, 1)", warm.X)
	}
	st := ws.Stats()
	if st.WarmAttempts != 1 || st.WarmHits != 1 {
		t.Errorf("stats = %+v, want one warm attempt and hit", st)
	}
}

// TestWarmStartAddColumn pins the column-generation flow: a priced-in
// column with a profitable reduced cost enters via the primal without a
// cold restart.
func TestWarmStartAddColumn(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(1, "x")
	budget := m.AddRow(LE, 4, Term{x, 1})
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 4, 1e-8) {
		t.Fatalf("cold objective = %v, want 4", sol.Objective)
	}
	y := m.AddColumn(3, "y", RowCoef{Row: budget, Coef: 1})
	warm, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Objective, 12, 1e-8) {
		t.Fatalf("warm: %v obj %v, want 12", warm.Status, warm.Objective)
	}
	if !warm.WarmStarted {
		t.Error("solve did not take the warm path")
	}
	if !approx(warm.X[y], 4, 1e-8) || !approx(warm.X[x], 0, 1e-8) {
		t.Errorf("X = %v, want y = 4", warm.X)
	}
}

// TestWarmStartInfeasibleCut checks that contradictory appended rows
// still produce a trustworthy Infeasible verdict (the warm path defers
// to a cold solve rather than proving infeasibility itself).
func TestWarmStartInfeasibleCut(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(1, "x")
	m.AddRow(LE, 4, Term{x, 1})
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	m.AddRow(GE, 10, Term{x, 1})
	warm, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", warm.Status)
	}
}

// TestWarmStartStaleBasis feeds SolveFrom a basis from an unrelated
// model; it must fall back to a correct cold solve.
func TestWarmStartStaleBasis(t *testing.T) {
	other := NewModel()
	other.Maximize()
	for j := 0; j < 6; j++ {
		// Weight the last variable so the stale basis references a
		// structural index the small model below does not have.
		other.AddVar(float64(1+j), "")
	}
	terms := make([]Term, 6)
	for j := range terms {
		terms[j] = Term{j, 1}
	}
	other.AddRow(LE, 1, terms...)
	osol, err := other.Solve()
	if err != nil {
		t.Fatal(err)
	}

	m := NewModel()
	x := m.AddVar(2, "x")
	m.AddRow(GE, 3, Term{x, 1})
	ws := NewWorkspace()
	sol, err := m.SolveFrom(ws, osol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 6, 1e-8) {
		t.Fatalf("got %v obj %v, want 6", sol.Status, sol.Objective)
	}
	if sol.WarmStarted {
		t.Error("a stale basis must not report a warm start")
	}
	if st := ws.Stats(); st.WarmAttempts != 1 || st.WarmHits != 0 || st.ColdSolves == 0 {
		t.Errorf("stats = %+v, want a failed warm attempt and a cold fallback", st)
	}
}

// TestWarmStartMatchesColdProperty grows random packing models with
// random extra rows and checks the warm-started optimum agrees with a
// from-scratch solve of the same grown model.
func TestWarmStartMatchesColdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := randomPackingModel(rng)
		ws := NewWorkspace()
		sol, err := m.SolveWith(ws)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: cold status %v", trial, sol.Status)
		}
		basis := sol.Basis
		// Append 1-3 random rows, some of which cut the optimum off.
		for extra, nextra := 0, 1+rng.Intn(3); extra < nextra; extra++ {
			var terms []Term
			for j := 0; j < m.NumVars(); j++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{j, rng.Float64() * 2})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{rng.Intn(m.NumVars()), 1})
			}
			sense := LE
			if rng.Float64() < 0.3 {
				sense = GE
			}
			m.AddRow(sense, rng.Float64()*3, terms...)
		}
		warm, err := m.SolveFrom(ws, basis)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		cold, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: cold re-solve: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Errorf("trial %d: warm obj %v vs cold %v", trial, warm.Objective, cold.Objective)
		}
		checkPrimalFeasible(t, m, warm.X)
		checkStrongDuality(t, m, warm)
	}
}

// TestWarmStartChainedRounds drives several cut rounds through one
// workspace, the exact shape of the Multicast-LB master loop, and
// checks every round stays on the warm path.
func TestWarmStartChainedRounds(t *testing.T) {
	m := NewModel()
	m.Maximize()
	n := 6
	for j := 0; j < n; j++ {
		m.AddVar(1, "")
	}
	for j := 0; j < n; j++ {
		m.AddRow(LE, 10, Term{j, 1})
	}
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			terms[j] = Term{j, 1}
		}
		m.AddRow(LE, 40-float64(round*5), terms...)
		sol, err = m.SolveFrom(ws, sol.Basis)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !sol.WarmStarted {
			t.Fatalf("round %d fell off the warm path", round)
		}
		if want := math.Min(60, 40-float64(round*5)); !approx(sol.Objective, want, 1e-7) {
			t.Fatalf("round %d: objective %v, want %v", round, sol.Objective, want)
		}
	}
	st := ws.Stats()
	if st.WarmHits != 5 {
		t.Errorf("warm hits = %d, want 5 (stats %+v)", st.WarmHits, st)
	}
	if st.Refactorizations != 0 {
		t.Errorf("refactorizations = %d, want 0 (these tiny warm chains must never overflow the eta file mid-solve)", st.Refactorizations)
	}
	if st.Factorizations < 6 {
		t.Errorf("factorizations = %d, want >= 6 (one sparse LU per solve: the cold start plus five warm rounds)", st.Factorizations)
	}
}

// TestModelCloneGrowsIndependently pins Model.Clone as a template: a
// solved model and its clone each grow on their own — a column that
// adds entries to existing rows, an appended cut — and re-solve warm
// from the template's basis, and neither growth shows in the other
// copy or in a second clone.
func TestModelCloneGrowsIndependently(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(1, "x")
	budget := m.AddRow(LE, 4, Term{x, 1})
	cap2 := m.AddRow(LE, 6, Term{x, 1})
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}

	a := m.Clone()
	y := a.AddColumn(3, "y", RowCoef{Row: budget, Coef: 1}, RowCoef{Row: cap2, Coef: 2})
	warmA, err := a.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warmA.WarmStarted || !approx(warmA.Objective, 9, 1e-8) || !approx(warmA.X[y], 3, 1e-8) {
		t.Fatalf("grown clone: warm %v, objective %v, X %v; want warm, 9 at y = 3", warmA.WarmStarted, warmA.Objective, warmA.X)
	}

	b := m.Clone()
	b.AddRow(LE, 1, Term{x, 1})
	warmB, err := b.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warmB.WarmStarted || !approx(warmB.Objective, 1, 1e-8) {
		t.Fatalf("cut clone: warm %v, objective %v; want warm, 1", warmB.WarmStarted, warmB.Objective)
	}

	if m.NumVars() != 1 || m.NumRows() != 2 || len(m.rows[budget].terms) != 1 || len(m.rows[cap2].terms) != 1 {
		t.Fatalf("template grew with its clones: %d vars, %d rows", m.NumVars(), m.NumRows())
	}
	again, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if again.Objective != sol.Objective {
		t.Errorf("template objective %v after its clones grew, want %v", again.Objective, sol.Objective)
	}
	if c := m.Clone(); c.NumVars() != 1 || c.NumRows() != 2 || len(c.rows[cap2].terms) != 1 {
		t.Errorf("a later clone sees another clone's growth: %d vars, %d rows", c.NumVars(), c.NumRows())
	}
}
