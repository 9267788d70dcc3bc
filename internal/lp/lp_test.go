package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleMax(t *testing.T) {
	// Classic: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Optimum (2, 6), objective 36, duals (0, 3/2, 1).
	m := NewModel()
	m.Maximize()
	x := m.AddVar(3, "x")
	y := m.AddVar(5, "y")
	m.AddRow(LE, 4, Term{x, 1})
	m.AddRow(LE, 12, Term{y, 2})
	m.AddRow(LE, 18, Term{x, 3}, Term{y, 2})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approx(sol.Objective, 36, 1e-8) {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if !approx(sol.X[x], 2, 1e-8) || !approx(sol.X[y], 6, 1e-8) {
		t.Errorf("X = %v, want (2, 6)", sol.X)
	}
	wantDual := []float64{0, 1.5, 1}
	for i, w := range wantDual {
		if !approx(sol.Dual[i], w, 1e-8) {
			t.Errorf("dual[%d] = %v, want %v", i, sol.Dual[i], w)
		}
	}
}

func TestSimpleMin(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x + 3y >= 6: optimum at (3, 1), obj 9.
	m := NewModel()
	x := m.AddVar(2, "x")
	y := m.AddVar(3, "y")
	m.AddRow(GE, 4, Term{x, 1}, Term{y, 1})
	m.AddRow(GE, 6, Term{x, 1}, Term{y, 3})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 9, 1e-8) {
		t.Fatalf("got %v obj %v, want optimal 9", sol.Status, sol.Objective)
	}
	if !approx(sol.X[x], 3, 1e-8) || !approx(sol.X[y], 1, 1e-8) {
		t.Errorf("X = %v", sol.X)
	}
	// Duals of a >= min problem are >= 0 and satisfy y.b = objective.
	if sol.Dual[0] < -1e-9 || sol.Dual[1] < -1e-9 {
		t.Errorf("duals = %v, want nonnegative", sol.Dual)
	}
	if !approx(4*sol.Dual[0]+6*sol.Dual[1], 9, 1e-7) {
		t.Errorf("strong duality violated: %v", sol.Dual)
	}
}

func TestEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1.
	m := NewModel()
	x := m.AddVar(1, "x")
	y := m.AddVar(1, "y")
	m.AddRow(EQ, 4, Term{x, 1}, Term{y, 2})
	m.AddRow(EQ, 1, Term{x, 1}, Term{y, -1})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.X[x], 2, 1e-8) || !approx(sol.X[y], 1, 1e-8) {
		t.Fatalf("got %v %v", sol.Status, sol.X)
	}
	if !approx(4*sol.Dual[0]+1*sol.Dual[1], 3, 1e-7) {
		t.Errorf("strong duality violated: %v", sol.Dual)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3).
	m := NewModel()
	x := m.AddVar(1, "x")
	m.AddRow(LE, -3, Term{x, -1})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.X[x], 3, 1e-8) {
		t.Fatalf("got %v x=%v", sol.Status, sol.X[x])
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, "x")
	m.AddRow(LE, 1, Term{x, 1})
	m.AddRow(GE, 2, Term{x, 1})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(1, "x")
	y := m.AddVar(0, "y")
	m.AddRow(GE, 1, Term{x, 1}, Term{y, 1})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerate(t *testing.T) {
	// A classically degenerate LP (multiple bases at the optimum).
	m := NewModel()
	m.Maximize()
	x := m.AddVar(2, "x")
	y := m.AddVar(1, "y")
	m.AddRow(LE, 4, Term{x, 1})
	m.AddRow(LE, 4, Term{x, 1}, Term{y, 1})
	m.AddRow(LE, 4, Term{x, 1}, Term{y, -1})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 8, 1e-8) {
		t.Fatalf("got %v obj %v, want 8", sol.Status, sol.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Second equality is a duplicate of the first; phase 1 must mark it
	// redundant rather than fail.
	m := NewModel()
	x := m.AddVar(1, "x")
	y := m.AddVar(2, "y")
	m.AddRow(EQ, 2, Term{x, 1}, Term{y, 1})
	m.AddRow(EQ, 4, Term{x, 2}, Term{y, 2})
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 2, 1e-8) {
		t.Fatalf("got %v obj %v, want 2 (x=2,y=0)", sol.Status, sol.Objective)
	}
}

func TestZeroRow(t *testing.T) {
	m := NewModel()
	x := m.AddVar(-1, "x")
	m.AddRow(LE, 5, Term{x, 1})
	m.AddRow(LE, 3) // 0 <= 3, trivially true
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.X[x], 5, 1e-9) {
		t.Fatalf("got %v %v", sol.Status, sol.X)
	}
}

func TestDuplicateTermsSummed(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, "x")
	m.AddRow(GE, 6, Term{x, 1}, Term{x, 2}) // effectively 3x >= 6
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[x], 2, 1e-8) {
		t.Fatalf("x = %v, want 2", sol.X[x])
	}
}

// TestDuplicateTermsAddColumn pins the AddColumn side of the
// "duplicate terms are summed" contract: entries referencing the same
// row twice must coalesce in the compiled column store, exactly like
// AddRow duplicates.
func TestDuplicateTermsAddColumn(t *testing.T) {
	m := NewModel()
	m.Maximize()
	r := m.AddRow(LE, 6)
	x := m.AddColumn(1, "x", RowCoef{Row: r, Coef: 1}, RowCoef{Row: r, Coef: 2}) // 3x <= 6
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[x], 2, 1e-8) || !approx(sol.Objective, 2, 1e-8) {
		t.Fatalf("x = %v obj = %v, want x = 2 obj = 2", sol.X[x], sol.Objective)
	}
}

// TestDuplicateTermsWarmPath pins duplicate coalescing on the warm
// path: a row with duplicate terms appended after a solve must compile
// identically when SolveFrom re-solves from the previous basis.
func TestDuplicateTermsWarmPath(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(1, "x")
	m.AddRow(LE, 10, Term{x, 1})
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	m.AddRow(LE, 6, Term{x, 1}, Term{x, 2}) // effectively 3x <= 6
	warm, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(warm.X[x], 2, 1e-8) {
		t.Fatalf("x = %v, want 2 (duplicate terms not coalesced on the warm path)", warm.X[x])
	}

	// And the column-generation variant: an AddColumn with duplicate
	// entries into an existing row, priced in by a warm re-solve.
	m2 := NewModel()
	m2.Maximize()
	x2 := m2.AddVar(1, "x")
	r := m2.AddRow(LE, 12, Term{x2, 1})
	ws2 := NewWorkspace()
	sol2, err := m2.SolveWith(ws2)
	if err != nil {
		t.Fatal(err)
	}
	y := m2.AddColumn(5, "y", RowCoef{Row: r, Coef: 2}, RowCoef{Row: r, Coef: 1}) // effectively 3y
	warm2, err := m2.SolveFrom(ws2, sol2.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(warm2.X[y], 4, 1e-8) || !approx(warm2.Objective, 20, 1e-8) {
		t.Fatalf("y = %v obj = %v, want y = 4 obj = 20", warm2.X[y], warm2.Objective)
	}
}

// TestZeroRowBasisRoundTrip pins the Basis.Empty fix: the optimal
// basis of a 0-row model has no basic columns but is real information,
// so SolveFrom must treat it as a warm start — the column-generation
// masters start rowless and previously cold-started forever.
func TestZeroRowBasisRoundTrip(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, "x")
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Basis.Empty() {
		t.Fatalf("0-row solve: status %v, basis empty %v; want optimal with a non-empty basis", sol.Status, sol.Basis.Empty())
	}
	warm, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatalf("0-row basis did not round-trip: WarmStarted = false")
	}
	st := ws.Stats()
	if st.WarmAttempts != 1 || st.WarmHits != 1 {
		t.Fatalf("stats = %+v, want WarmAttempts = 1 and WarmHits = 1", st)
	}
	// The round-trip must also survive growth: an inequality appended to
	// the rowless basis joins on its slack.
	m.AddRow(GE, 2, Term{x, 1})
	grown, err := m.SolveFrom(ws, warm.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Status != Optimal || !approx(grown.X[x], 2, 1e-9) {
		t.Fatalf("grown solve: %+v, want optimal x = 2", grown)
	}
	// A zero Basis literal must still mean "no information".
	if !(Basis{}).Empty() {
		t.Fatal("zero Basis is not Empty")
	}
}

// degenerateZeroRHSModel builds the satellite's stress shape: a cycle
// of zero-RHS >= rows (massively degenerate) under a covering row.
func degenerateZeroRHSModel(n int) *Model {
	m := NewModel()
	for j := 0; j < n; j++ {
		m.AddVar(1, "")
	}
	for i := 0; i < n; i++ {
		m.AddRow(GE, 0, Term{i, 1}, Term{(i + 1) % n, -1})
	}
	terms := make([]Term, n)
	for j := 0; j < n; j++ {
		terms[j] = Term{j, 1}
	}
	m.AddRow(GE, 3, terms...)
	return m
}

// TestSolveFromFallbackLadder pins the unified fallback: SolveFrom on
// a degenerate zero-RHS instance — whether the basis is usable, stale,
// or outright junk — must end up at least as robust as SolveWith,
// including the perturbed ErrIterationLimit retry.
func TestSolveFromFallbackLadder(t *testing.T) {
	m := degenerateZeroRHSModel(12)
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %+v err %v", sol, err)
	}
	if !approx(sol.Objective, 3, 1e-6) {
		t.Fatalf("cold objective = %v, want 3", sol.Objective)
	}

	// Warm re-solve after appending another degenerate row.
	m.AddRow(GE, 0, Term{0, 1}, Term{6, -1})
	warm, err := m.SolveFrom(ws, sol.Basis)
	if err != nil {
		t.Fatalf("SolveFrom returned %v; the fallback ladder must absorb warm-path failures", err)
	}
	if warm.Status != Optimal || !approx(warm.Objective, 3, 1e-6) {
		t.Fatalf("warm: %+v, want optimal objective 3", warm)
	}

	// A basis from an unrelated model shape (too many rows) must be
	// rejected and still land on the cold ladder, not error out.
	other := degenerateZeroRHSModel(16)
	osol, err := other.SolveWith(NewWorkspace())
	if err != nil || osol.Status != Optimal {
		t.Fatalf("other cold: %+v err %v", osol, err)
	}
	fallback, err := m.SolveFrom(NewWorkspace(), osol.Basis)
	if err != nil {
		t.Fatalf("stale-basis SolveFrom: %v", err)
	}
	if fallback.WarmStarted {
		t.Fatal("oversized foreign basis was accepted as a warm start")
	}
	if fallback.Status != Optimal || !approx(fallback.Objective, 3, 1e-6) {
		t.Fatalf("fallback: %+v, want optimal objective 3", fallback)
	}
}

func TestBadVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewModel()
	m.AddRow(LE, 1, Term{3, 1})
}

// bruteForce solves min c.x, rows, x >= 0 by enumerating all basic
// solutions of the slack-augmented system. Returns (value, feasible).
func bruteForce(c []float64, rows []row) (float64, bool) {
	n := len(c)
	mRows := len(rows)
	// Build equality system with slacks.
	total := n
	for _, r := range rows {
		if r.sense != EQ {
			total++
		}
	}
	a := make([][]float64, mRows)
	b := make([]float64, mRows)
	col := n
	for i, r := range rows {
		a[i] = make([]float64, total)
		for _, t := range r.terms {
			a[i][t.Var] += t.Coef
		}
		b[i] = r.rhs
		switch r.sense {
		case LE:
			a[i][col] = 1
			col++
		case GE:
			a[i][col] = -1
			col++
		}
	}
	// Reduce to an independent row system first: duplicate or empty rows
	// make every square basis singular, which would wrongly report
	// infeasibility.
	a, b, consistent := rowReduce(a, b)
	if !consistent {
		return math.Inf(1), false
	}
	mRows = len(a)
	if mRows == 0 {
		// Vacuous system: unreachable in the property tests, which
		// always include a non-trivial box row.
		return 0, true
	}

	best := math.Inf(1)
	feasible := false
	idx := make([]int, mRows)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == mRows {
			x, ok := solveSquare(a, b, idx)
			if !ok {
				return
			}
			for _, v := range x {
				if v < -1e-7 {
					return
				}
			}
			feasible = true
			val := 0.0
			for p, j := range idx {
				if j < n {
					val += c[j] * x[p]
				}
			}
			if val < best {
				best = val
			}
			return
		}
		for j := start; j < total; j++ {
			idx[k] = j
			rec(j+1, k+1)
		}
	}
	rec(0, 0)
	return best, feasible
}

// rowReduce Gauss-eliminates [A | b], dropping dependent rows. It
// returns the independent system and whether it is consistent.
func rowReduce(a [][]float64, b []float64) ([][]float64, []float64, bool) {
	m := len(a)
	if m == 0 {
		return a, b, true
	}
	cols := len(a[0])
	work := make([][]float64, m)
	for i := range work {
		work[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	rank := 0
	for col := 0; col < cols && rank < m; col++ {
		p := -1
		for r := rank; r < m; r++ {
			if math.Abs(work[r][col]) > 1e-9 && (p < 0 || math.Abs(work[r][col]) > math.Abs(work[p][col])) {
				p = r
			}
		}
		if p < 0 {
			continue
		}
		work[rank], work[p] = work[p], work[rank]
		pv := work[rank][col]
		for j := col; j <= cols; j++ {
			work[rank][j] /= pv
		}
		for r := 0; r < m; r++ {
			if r == rank {
				continue
			}
			f := work[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= cols; j++ {
				work[r][j] -= f * work[rank][j]
			}
		}
		rank++
	}
	for r := rank; r < m; r++ {
		if math.Abs(work[r][cols]) > 1e-7 {
			return nil, nil, false // 0 = nonzero: inconsistent
		}
	}
	outA := make([][]float64, rank)
	outB := make([]float64, rank)
	for r := 0; r < rank; r++ {
		outA[r] = work[r][:cols]
		outB[r] = work[r][cols]
	}
	return outA, outB, true
}

// solveSquare solves A[:, idx] x = b by Gaussian elimination.
func solveSquare(a [][]float64, b []float64, idx []int) ([]float64, bool) {
	m := len(b)
	mat := make([][]float64, m)
	for i := range mat {
		mat[i] = make([]float64, m+1)
		for k, j := range idx {
			mat[i][k] = a[i][j]
		}
		mat[i][m] = b[i]
	}
	for col := 0; col < m; col++ {
		p := -1
		for r := col; r < m; r++ {
			if math.Abs(mat[r][col]) > 1e-9 && (p < 0 || math.Abs(mat[r][col]) > math.Abs(mat[p][col])) {
				p = r
			}
		}
		if p < 0 {
			return nil, false
		}
		mat[col], mat[p] = mat[p], mat[col]
		pv := mat[col][col]
		for j := col; j <= m; j++ {
			mat[col][j] /= pv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := mat[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= m; j++ {
				mat[r][j] -= f * mat[col][j]
			}
		}
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = mat[i][m]
	}
	return x, true
}

// Property: simplex agrees with brute-force basic-solution enumeration
// on random small bounded LPs.
func TestSimplexMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		mRows := 1 + rng.Intn(3)
		m := NewModel()
		c := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = math.Round((rng.Float64()*4-2)*4) / 4
			m.AddVar(c[j], "")
		}
		var rows []row
		for i := 0; i < mRows; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				coef := math.Round((rng.Float64()*4-2)*2) / 2
				if coef != 0 {
					terms = append(terms, Term{j, coef})
				}
			}
			sense := Sense(rng.Intn(3))
			rhs := math.Round((rng.Float64()*6-2)*2) / 2
			m.AddRow(sense, rhs, terms...)
			rows = append(rows, row{sense: sense, rhs: rhs, terms: terms})
		}
		// Bound the feasible region so unboundedness cannot occur.
		boxTerms := make([]Term, n)
		for j := 0; j < n; j++ {
			boxTerms[j] = Term{j, 1}
		}
		m.AddRow(LE, 10, boxTerms...)
		rows = append(rows, row{sense: LE, rhs: 10, terms: boxTerms})

		sol, err := m.Solve()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, feas := bruteForce(c, rows)
		if !feas {
			return sol.Status == Infeasible
		}
		if sol.Status != Optimal {
			t.Logf("seed %d: status %v but brute force found %v", seed, sol.Status, want)
			return false
		}
		if !approx(sol.Objective, want, 1e-6) {
			t.Logf("seed %d: simplex %v vs brute %v", seed, sol.Objective, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: at optimality, duals satisfy strong duality (y.b == c.x) on
// random feasible bounded LPs.
func TestStrongDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := NewModel()
		for j := 0; j < n; j++ {
			m.AddVar(0.5+rng.Float64(), "") // positive costs: min is bounded
		}
		mRows := 1 + rng.Intn(4)
		rhs := make([]float64, 0, mRows)
		for i := 0; i < mRows; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				terms = append(terms, Term{j, rng.Float64()})
			}
			r := 1 + rng.Float64()*3
			m.AddRow(GE, r, terms...) // feasible: x large enough works
			rhs = append(rhs, r)
		}
		sol, err := m.Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		dualObj := 0.0
		for i, y := range sol.Dual {
			if y < -1e-7 {
				return false // >= rows of a min problem must have y >= 0
			}
			dualObj += y * rhs[i]
		}
		return approx(dualObj, sol.Objective, 1e-6*(1+math.Abs(sol.Objective)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSmallModelOptima pins the hand-computed optima of small
// degenerate programs: a variable fixed by an equality, single-variable
// bounds, a zero upper bound, a costless absorber column, an equality
// with a substitutable column, and duplicate or redundant rows. Where
// the optimal vertex or the duals are unique the test pins them too;
// every solution must be primal feasible and meet strong duality.
func TestSmallModelOptima(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(m *Model)
		obj   float64
		x     []float64 // nil when the optimal vertex is not unique
		dual  []float64
	}{
		{"fixed by an equality singleton", func(m *Model) {
			x, y := m.AddVar(2, "x"), m.AddVar(3, "y")
			m.AddRow(EQ, 4, Term{x, 1})
			m.AddRow(GE, 6, Term{x, 1}, Term{y, 1})
		}, 14, []float64{4, 2}, []float64{-1, 3}},
		{"lower-bound singleton", func(m *Model) {
			x := m.AddVar(1, "x")
			m.AddRow(GE, 5, Term{x, 1})
		}, 5, []float64{5}, []float64{1}},
		{"zero upper bound", func(m *Model) {
			// min -x subject to x <= 0: the <= row's dual is -1, not a
			// sign-violating +1.
			x := m.AddVar(-1, "x")
			m.AddRow(LE, 0, Term{x, 1})
		}, 0, []float64{0}, []float64{-1}},
		{"costless absorber column", func(m *Model) {
			x, y := m.AddVar(0, "x"), m.AddVar(1, "y")
			m.AddRow(GE, 3, Term{x, 1}, Term{y, 1})
		}, 0, []float64{3, 0}, []float64{0}},
		{"equality with a substitutable column", func(m *Model) {
			// min 2s + x with s = 5 - x: x runs to its upper bound 3.
			s, x := m.AddVar(2, "s"), m.AddVar(1, "x")
			m.AddRow(EQ, 5, Term{s, 1}, Term{x, 1})
			m.AddRow(LE, 3, Term{x, 1})
		}, 7, []float64{2, 3}, []float64{2, -1}},
		{"duplicate and redundant rows", func(m *Model) {
			x, y := m.AddVar(1, "x"), m.AddVar(1, "y")
			m.AddRow(GE, 0, Term{x, 1}, Term{y, 1}) // redundant under x,y >= 0
			m.AddRow(GE, 2, Term{x, 1}, Term{y, 1}) // binding
			m.AddRow(GE, 1, Term{x, 1}, Term{y, 1}) // duplicate, dominated
		}, 2, nil, []float64{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel()
			tc.build(m)
			sol, err := m.Solve()
			if err != nil || sol.Status != Optimal {
				t.Fatalf("got %+v (err %v), want optimal", sol, err)
			}
			if !approx(sol.Objective, tc.obj, 1e-9) {
				t.Errorf("objective = %v, want %v", sol.Objective, tc.obj)
			}
			for j, want := range tc.x {
				if !approx(sol.X[j], want, 1e-9) {
					t.Errorf("X = %v, want %v", sol.X, tc.x)
					break
				}
			}
			for i, want := range tc.dual {
				if !approx(sol.Dual[i], want, 1e-9) {
					t.Errorf("Dual = %v, want %v", sol.Dual, tc.dual)
					break
				}
			}
			checkPrimalFeasible(t, m, sol.X)
			checkStrongDuality(t, m, sol)
		})
	}
}

// TestPresolveMaximizeModels solves a maximising program with a fixed
// variable and a duplicated <= row: the min-normalised solve must not
// leak the wrong sign into values or duals.
func TestPresolveMaximizeModels(t *testing.T) {
	m := NewModel()
	m.Maximize()
	x := m.AddVar(3, "x")
	y := m.AddVar(1, "y")
	m.AddRow(EQ, 2, Term{x, 1})             // fixes x = 2
	m.AddRow(LE, 8, Term{x, 2}, Term{y, 1}) // y <= 4 after the fix
	m.AddRow(LE, 8, Term{x, 2}, Term{y, 1}) // duplicate
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("got %+v (err %v), want optimal", sol, err)
	}
	if !approx(sol.X[x], 2, 1e-9) || !approx(sol.X[y], 4, 1e-9) {
		t.Errorf("X = %v, want [2 4]", sol.X)
	}
	if !approx(sol.Objective, 10, 1e-9) {
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
	checkPrimalFeasible(t, m, sol.X)
	checkStrongDuality(t, m, sol)
	// Max-model convention: the binding <= row prices y at +1.
	if sol.Dual[1] < -dualTol {
		t.Errorf("dual[1] = %v, want >= 0 for a binding <= row of a max model", sol.Dual[1])
	}
}

// TestPresolveDetectsStatuses pins the Infeasible/Unbounded verdicts on
// the shapes a presolve pass would settle before any pivot: an empty
// row, disagreeing duplicate equalities and a column no row touches.
func TestPresolveDetectsStatuses(t *testing.T) {
	t.Run("empty row contradiction", func(t *testing.T) {
		m := NewModel()
		m.AddVar(1, "x")
		m.AddRow(GE, 1) // 0 >= 1
		sol, err := m.Solve()
		if err != nil || sol.Status != Infeasible {
			t.Fatalf("got %+v (err %v), want infeasible", sol, err)
		}
	})
	t.Run("duplicate equalities disagree", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(1, "x")
		y := m.AddVar(1, "y")
		m.AddRow(EQ, 1, Term{x, 1}, Term{y, 2})
		m.AddRow(EQ, 3, Term{x, 1}, Term{y, 2})
		sol, err := m.Solve()
		if err != nil || sol.Status != Infeasible {
			t.Fatalf("got %+v (err %v), want infeasible", sol, err)
		}
	})
	t.Run("unconstrained column ray", func(t *testing.T) {
		m := NewModel()
		m.Maximize()
		m.AddVar(1, "x")
		sol, err := m.Solve()
		if err != nil || sol.Status != Unbounded {
			t.Fatalf("got %+v (err %v), want unbounded", sol, err)
		}
	})
	t.Run("infeasibility beats an unconstrained ray", func(t *testing.T) {
		// Fuzz-found (FuzzSolveMPS): a column whose duplicate terms
		// cancel to zero looks like an improving free ray, but the rest
		// of the model is infeasible — and unboundedness is only a valid
		// verdict on a feasible model.
		m := NewModel()
		free := m.AddVar(-10, "free")
		x := m.AddVar(0, "x")
		s := m.AddVar(0, "s")
		m.AddRow(EQ, 0, Term{free, 1}, Term{free, -1}) // coalesces to 0 = 0
		m.AddRow(EQ, 0, Term{x, 1}, Term{s, 1})        // x = s = 0
		m.AddRow(GE, 1, Term{x, 1})                    // contradicts x = 0
		sol, err := m.Solve()
		if err != nil || sol.Status != Infeasible {
			t.Fatalf("got %+v (err %v), want infeasible", sol, err)
		}
		// The mirror case stays Unbounded: same ray, feasible remainder.
		m2 := NewModel()
		m2.AddVar(-10, "free")
		x2 := m2.AddVar(0, "x")
		m2.AddRow(GE, 1, Term{x2, 1})
		sol2, err := m2.Solve()
		if err != nil || sol2.Status != Unbounded {
			t.Fatalf("got %+v (err %v), want unbounded", sol2, err)
		}
	})
}

// TestPresolveShiftInfeasibleTail checks a lower bound against a later
// contradicting upper bound: x >= 5 and x <= 3 is infeasible.
func TestPresolveShiftInfeasibleTail(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, "x")
	m.AddRow(GE, 5, Term{x, 1})
	m.AddRow(LE, 3, Term{x, 1})
	sol, err := m.Solve()
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("got %+v (err %v), want infeasible", sol, err)
	}
}

// TestPresolveShiftDualThroughSubstEQ is the decoded form of a
// fuzz-found duality gap (FuzzSolveMPS corpus 824a622742f18e2f): a
// small flow model whose demand row DEM2 forces all the flow through
// two balance equations. The optimum is 300, y.b must equal it, and
// DEM2's dual is 50.
func TestPresolveShiftDualThroughSubstEQ(t *testing.T) {
	m := NewModel()
	x1 := m.AddVar(0, "x1")
	x00 := m.AddVar(0, "x00")
	i1 := m.AddVar(5, "i1")
	x0 := m.AddVar(7, "x0")
	s2 := m.AddVar(0, "s2")
	m.AddRow(EQ, 0, Term{x1, 1}, Term{i1, -1}, Term{x0, 1})   // BAL1
	m.AddRow(EQ, 0, Term{x00, 1}, Term{i1, 1}, Term{s2, -10}) // BAL2
	m.AddRow(LE, 0)                                           // empty
	m.AddRow(LE, 10, Term{x00, 1})                            // CAP2
	m.AddRow(GE, 10, Term{x1, 1})                             // DEM1
	m.AddRow(GE, 7, Term{s2, 1})                              // DEM2
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("got %+v (err %v), want optimal", sol, err)
	}
	if !approx(sol.Objective, 300, 1e-9) {
		t.Fatalf("objective = %v, want 300", sol.Objective)
	}
	checkStrongDuality(t, m, sol)
	if !approx(sol.Dual[5], 50, 1e-7) {
		t.Errorf("dual[DEM2] = %v, want 50", sol.Dual[5])
	}
}
