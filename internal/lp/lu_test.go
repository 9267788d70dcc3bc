package lp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/testutil"
)

// denseBasis gathers the workspace's current basis matrix as a dense
// row-major m x m matrix (column slot s = A_{basis[s]}), the reference
// the LU engine is checked against.
func denseBasis(ws *Workspace) [][]float64 {
	m := ws.m
	B := make([][]float64, m)
	for i := range B {
		B[i] = make([]float64, m)
	}
	for slot := 0; slot < m; slot++ {
		code := ws.basis[slot]
		if code >= ws.n {
			B[ws.unitRow(code)][slot] = ws.unitSign(code)
			continue
		}
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			B[ws.colRow[e]][slot] += ws.colVal[e]
		}
	}
	return B
}

// denseSolve solves B x = b (transpose=false) or B^T x = b
// (transpose=true) by Gaussian elimination with partial pivoting — the
// plain dense reference for FTRAN and BTRAN.
func denseSolve(B [][]float64, b []float64, transpose bool) []float64 {
	m := len(B)
	a := make([][]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, m+1)
		for j := 0; j < m; j++ {
			if transpose {
				a[i][j] = B[j][i]
			} else {
				a[i][j] = B[i][j]
			}
		}
		a[i][m] = b[i]
	}
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		a[p], a[c] = a[c], a[p]
		pv := a[c][c]
		for r := 0; r < m; r++ {
			if r == c || a[r][c] == 0 {
				continue
			}
			f := a[r][c] / pv
			for j := c; j <= m; j++ {
				a[r][j] -= f * a[c][j]
			}
		}
	}
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		x[i] = a[i][m] / a[i][i]
	}
	return x
}

// TestFtranBtranMatchDense factorises randomly grown bases — including
// bases carrying a non-empty eta file — and checks FTRAN and BTRAN
// against dense Gaussian elimination on the explicit basis matrix.
func TestFtranBtranMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const tol = 1e-8
	for trial := 0; trial < 30; trial++ {
		mdl := randomPackingModel(rng)
		ws := NewWorkspace()
		ws.compile(mdl, 0)
		ws.ensureIterState()
		m := ws.m
		// Start from the diagonal unit basis, then pivot a few random
		// structural columns in through the real pivot path so the eta
		// file grows exactly as it would mid-solve.
		for i := 0; i < m; i++ {
			code := ws.n + 2*i
			ws.basis[i] = code
			ws.basisPos[code] = i
			ws.xb[i] = math.Abs(ws.rhs[i])
		}
		ws.phase = 2
		ws.setPhase(2)
		if !ws.factorize() {
			t.Fatalf("trial %d: unit basis reported singular", trial)
		}
		for pivots := 0; pivots < 1+rng.Intn(4); pivots++ {
			enter := rng.Intn(ws.n)
			if ws.basisPos[enter] >= 0 {
				continue
			}
			ws.ftran(enter)
			leave := -1
			for i := 0; i < m; i++ {
				if math.Abs(ws.w[i]) > 1e-6 && (leave < 0 || math.Abs(ws.w[i]) > math.Abs(ws.w[leave])) {
					leave = i
				}
			}
			if leave < 0 {
				continue
			}
			ws.pivot(leave, enter)
		}
		B := denseBasis(ws)

		// FTRAN of a random structural column vs the dense solve.
		code := rng.Intn(ws.n)
		ws.ftran(code)
		rhs := make([]float64, m)
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			rhs[ws.colRow[e]] += ws.colVal[e]
		}
		want := denseSolve(B, rhs, false)
		for i := 0; i < m; i++ {
			if !testutil.Near(ws.w[i], want[i], tol) {
				t.Fatalf("trial %d: FTRAN[%d] = %v, dense %v", trial, i, ws.w[i], want[i])
			}
		}

		// BTRAN of a random slot-space vector vs the dense transposed
		// solve (y B = c  <=>  B^T y = c).
		c := make([]float64, m)
		for i := range c {
			if rng.Float64() < 0.4 {
				c[i] = rng.NormFloat64()
			}
		}
		y := make([]float64, m)
		btranDense(ws, c, y)
		wantY := denseSolve(B, c, true)
		for i := 0; i < m; i++ {
			if !testutil.Near(y[i], wantY[i], tol) {
				t.Fatalf("trial %d: BTRAN[%d] = %v, dense %v", trial, i, y[i], wantY[i])
			}
		}
	}
}

// TestSolveBitIdenticalAcrossWorkspaceReuse re-solves one model on a
// fresh workspace and on a workspace that already solved unrelated
// programs, and demands bit-identical Solutions, Basis encodings and
// iteration counts — the property the serving layer's
// Reset-an-evaluator-per-request contract rests on (partial-pricing
// cursors, candidate lists and eta files must all reset per solve).
func TestSolveBitIdenticalAcrossWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		mdl := randomPackingModel(rng)
		fresh, err := mdl.SolveWith(NewWorkspace())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dirty := NewWorkspace()
		for warmups := 0; warmups < 3; warmups++ {
			if _, err := randomCoveringModel(rng).SolveWith(dirty); err != nil {
				t.Fatalf("trial %d: warmup: %v", trial, err)
			}
		}
		reused, err := mdl.SolveWith(dirty)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fresh.Status != reused.Status || fresh.Objective != reused.Objective {
			t.Fatalf("trial %d: fresh %v/%v vs reused %v/%v",
				trial, fresh.Status, fresh.Objective, reused.Status, reused.Objective)
		}
		if fresh.Iterations != reused.Iterations {
			t.Errorf("trial %d: iteration count %d vs %d on workspace reuse", trial, fresh.Iterations, reused.Iterations)
		}
		if !reflect.DeepEqual(fresh.X, reused.X) || !reflect.DeepEqual(fresh.Dual, reused.Dual) {
			t.Errorf("trial %d: X/Dual differ across workspace reuse", trial)
		}
		if !reflect.DeepEqual(fresh.Basis, reused.Basis) {
			t.Errorf("trial %d: Basis encodings differ across workspace reuse", trial)
		}
	}
}

// TestEtaGrowthTriggersRefactor drives a solve long enough that the
// eta file exceeds its length threshold mid-solve and checks the
// workspace refactorised (and still reached a correct optimum).
func TestEtaGrowthTriggersRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	triggered := false
	for trial := 0; trial < 60 && !triggered; trial++ {
		// Covering shape: every >= row with a positive right-hand side
		// starts on an artificial, so phase 1 alone pivots about one eta
		// per row — comfortably past the eta-file length threshold.
		m := NewModel()
		n := 16
		for j := 0; j < n; j++ {
			m.AddVar(0.1+rng.Float64(), "")
		}
		for r := 0; r < 48; r++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					terms = append(terms, Term{j, 0.1 + rng.Float64()})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{rng.Intn(n), 1})
			}
			m.AddRow(GE, 0.5+rng.Float64()*3, terms...)
		}
		ws := NewWorkspace()
		sol, err := m.SolveWith(ws)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		checkPrimalFeasible(t, m, sol.X)
		checkStrongDuality(t, m, sol)
		if st := ws.Stats(); st.Refactorizations > 0 {
			if st.Factorizations <= st.Refactorizations {
				t.Fatalf("trial %d: %d factorizations vs %d refactorizations — every solve must factorise at least once",
					trial, st.Factorizations, st.Refactorizations)
			}
			triggered = true
		}
	}
	if !triggered {
		t.Fatal("no trial exceeded the eta-file threshold; the refactor path is untested")
	}
}

// TestRefactorPreservesIterate pins the drift control: a refactorised
// basis must reproduce the same basic values the eta-file updates
// maintained (recomputeXB agrees with the incremental iterate).
func TestRefactorPreservesIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mdl := randomPackingModel(rng)
	ws := NewWorkspace()
	if _, err := mdl.SolveWith(ws); err != nil {
		t.Fatal(err)
	}
	before := make([]float64, ws.m)
	copy(before, ws.xb[:ws.m])
	ws.refactorInPlace()
	if ws.luBad {
		t.Fatal("refactorisation of an optimal basis reported singular")
	}
	for i := 0; i < ws.m; i++ {
		if !testutil.Near(before[i], ws.xb[i], 1e-9) {
			t.Fatalf("xb[%d] drifted across refactorisation: %v vs %v", i, before[i], ws.xb[i])
		}
	}
}

// btranDense runs the workspace's BTRAN on a dense slot-space vector c.
func btranDense(ws *Workspace, c, y []float64) {
	f := &ws.lu
	z := ws.btmp[:ws.m]
	f.nzList = f.nzList[:0]
	for i, v := range c {
		if v != 0 {
			z[i] = v
			f.nzList = append(f.nzList, int32(i))
		}
	}
	f.btran(z, y)
}

// refBtran is a dense BTRAN, the reference for btran: the reverse eta
// sweep sums over every slot of every eta, then the transposed U and L
// solves walk all m elimination steps. z is destroyed.
func refBtran(f *luFactor, z, y []float64) {
	for e := len(f.etaPiv) - 1; e >= 0; e-- {
		acc := 0.0
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			acc += z[f.etaRow[t]] * f.etaVal[t]
		}
		r := f.etaPiv[e]
		z[r] = (z[r] - acc) / f.etaPivVal[e]
	}
	for k := 0; k < f.m; k++ {
		v := z[f.slotOf[k]] / f.uDiag[k]
		y[f.rowOf[k]] = v
		if v == 0 {
			continue
		}
		for e := f.utPtr[k]; e < f.utPtr[k+1]; e++ {
			z[f.utCol[e]] -= f.utVal[e] * v
		}
	}
	for j := f.m - 1; j >= 0; j-- {
		v := y[f.rowOf[j]]
		if v == 0 {
			continue
		}
		for e := f.ltPtr[j]; e < f.ltPtr[j+1]; e++ {
			y[f.ltRow[e]] -= f.ltVal[e] * v
		}
	}
}

// refFtran is a dense FTRAN, the reference for ftran: scatter the
// column, solve through all of L and U, then apply every eta.
func refFtran(ws *Workspace, code int) []float64 {
	m := ws.m
	a := make([]float64, m)
	if code >= ws.n {
		a[ws.unitRow(code)] = ws.unitSign(code)
	} else {
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			a[ws.colRow[e]] = ws.colVal[e]
		}
	}
	w := make([]float64, m)
	f := &ws.lu
	f.lowerSolve(a)
	f.upperSolve(a, w)
	for e := 0; e < len(f.etaPiv); e++ {
		r := f.etaPiv[e]
		p := w[r]
		if p == 0 {
			continue
		}
		p /= f.etaPivVal[e]
		w[r] = p
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			w[f.etaRow[t]] -= f.etaVal[t] * p
		}
	}
	return w
}

// refChooseLeaving is a dense ratio test, the reference for
// chooseLeaving: two passes over all m rows of w.
func refChooseLeaving(ws *Workspace, w []float64, bland bool) int {
	m := ws.m
	pinned := ws.nart > 0
	bestRatio := math.Inf(1)
	for i := 0; i < m; i++ {
		wi := w[i]
		if pinned {
			wi = ws.leaveCoef(i, wi)
		}
		if wi <= Eps {
			continue
		}
		if ratio := ws.xb[i] / wi; ratio < bestRatio {
			bestRatio = ratio
		}
	}
	if math.IsInf(bestRatio, 1) {
		return -1
	}
	tol := Eps * (1 + math.Abs(bestRatio))
	best := -1
	bestCoef := 0.0
	for i := 0; i < m; i++ {
		wi := w[i]
		if pinned {
			wi = ws.leaveCoef(i, wi)
		}
		if wi <= Eps {
			continue
		}
		if ws.xb[i]/wi > bestRatio+tol {
			continue
		}
		if bland {
			if best < 0 || ws.basis[i] < ws.basis[best] {
				best = i
			}
		} else if wi > bestCoef {
			best, bestCoef = i, wi
		}
	}
	return best
}

// sameNonzeros fails unless got and want agree bit for bit on every
// nonzero of want and got is zero (either sign) wherever want is.
func sameNonzeros(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, v := range want {
		if v == 0 {
			if got[i] != 0 {
				t.Fatalf("%s[%d] = %v, dense reference 0", what, i, got[i])
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s[%d] = %v (%#x), dense reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

// randomMixedModel builds a feasible, bounded program with <=, >= and =
// rows around a random point x0 >= 0, sparse enough that FTRAN and BTRAN
// skip most of the basis, and large enough that phase 1, the eta file
// and mid-solve refactorisations all come into play.
func randomMixedModel(rng *rand.Rand, maximize bool) *Model {
	mdl := NewModel()
	if maximize {
		mdl.Maximize()
	}
	n := 12 + rng.Intn(30)
	x0 := make([]float64, n)
	budget := make([]Term, n)
	total := 0.0
	for j := 0; j < n; j++ {
		mdl.AddVar(rng.Float64()*4-2, "")
		if rng.Float64() < 0.6 {
			x0[j] = rng.Float64() * 3
		}
		total += x0[j]
		budget[j] = Term{Var: j, Coef: 1}
	}
	mdl.AddRow(LE, total+5, budget...)
	for r, rows := 0, 20+rng.Intn(50); r < rows; r++ {
		var terms []Term
		ax := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.12 {
				c := rng.Float64()*4 - 1
				terms = append(terms, Term{Var: j, Coef: c})
				ax += c * x0[j]
			}
		}
		if len(terms) == 0 {
			j := rng.Intn(n)
			terms = append(terms, Term{Var: j, Coef: 1})
			ax += x0[j]
		}
		switch rng.Intn(3) {
		case 0:
			mdl.AddRow(LE, ax+rng.Float64(), terms...)
		case 1:
			mdl.AddRow(GE, ax-rng.Float64(), terms...)
		default:
			mdl.AddRow(EQ, ax, terms...)
		}
	}
	return mdl
}

// TestSparseKernelsMatchDenseReference drives the primal simplex through
// the workspace's own pricing, ratio test and pivot on random min- and
// max-sense models, and before every pivot checks the hypersparse
// kernels against dense reference loops: y (BTRAN of the basic
// costs), w (FTRAN of the entering column) and rho (BTRAN of the leaving
// row) must match on every nonzero to the bit, wNZ must list exactly the
// nonzeros of w in ascending order, and the leaving row must be the one
// the dense ratio test picks, under both tie-break rules. Pivots append
// to the eta file and trigger mid-solve refactorisations as in a real
// solve.
func TestSparseKernelsMatchDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var pivots, refactors, etaPivots, phase1 int
	for trial := 0; trial < 40; trial++ {
		mdl := randomMixedModel(rng, trial%2 == 1)
		ws := NewWorkspace()
		ws.compile(mdl, 0)
		ws.ensureIterState()
		ws.rng = newXorshift(uint64(trial) + 1)
		m := ws.m
		for i := 0; i < m; i++ {
			code := ws.n + 2*i
			if ws.rhs[i] < 0 || (ws.rhs[i] == 0 && ws.sense[i] == GE) {
				code++
			}
			ws.basis[i] = code
			ws.basisPos[code] = i
			ws.xb[i] = math.Abs(ws.rhs[i])
			if ws.isArtificial(code) {
				ws.artRow[i] = true
				ws.nart++
			}
		}
		if !ws.factorize() {
			t.Fatalf("trial %d: unit basis reported singular", trial)
		}
		phase := 2
		if ws.nart > 0 {
			phase = 1
		}
		ws.setPhase(phase)
		yRef := make([]float64, m)
		rhoRef := make([]float64, m)
		z := make([]float64, m)
		for iter := 0; iter < 5000; iter++ {
			if ws.phase == 1 && ws.objValue() <= feasTol/2 {
				ws.setPhase(2)
			}
			copy(z, ws.cb[:m])
			refBtran(&ws.lu, z, yRef)
			ws.computeY()
			sameNonzeros(t, "y", ws.y[:m], yRef)

			mode := pricingDantzig
			if iter%7 == 6 {
				mode = pricingRandom
			}
			enter := ws.chooseEntering(mode)
			if enter < 0 {
				break
			}
			wRef := refFtran(ws, enter)
			ws.ftran(enter)
			sameNonzeros(t, "w", ws.w[:m], wRef)
			var want []int32
			for i, v := range wRef {
				if v != 0 {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(ws.wNZ, want) {
				t.Fatalf("trial %d iter %d: wNZ = %v, nonzeros of w %v", trial, iter, ws.wNZ, want)
			}
			if got, ref := ws.chooseLeaving(true), refChooseLeaving(ws, wRef, true); got != ref {
				t.Fatalf("trial %d iter %d: Bland leaving row %d, dense reference %d", trial, iter, got, ref)
			}
			leave := ws.chooseLeaving(false)
			if ref := refChooseLeaving(ws, wRef, false); leave != ref {
				t.Fatalf("trial %d iter %d: leaving row %d, dense reference %d", trial, iter, leave, ref)
			}
			if leave < 0 {
				break
			}
			for i := range z {
				z[i] = 0
			}
			z[leave] = 1
			refBtran(&ws.lu, z, rhoRef)
			ws.loadRho(leave)
			sameNonzeros(t, "rho", ws.rho[:m], rhoRef)
			// loadRho reused the scratch that held wNZ; refresh it.
			ws.ftran(enter)

			if ws.phase == 1 {
				phase1++
			}
			if ws.lu.etas() > 0 {
				etaPivots++
			}
			before := ws.stats.Refactorizations
			ws.pivot(leave, enter)
			if ws.luBad {
				t.Fatalf("trial %d iter %d: refactorisation reported singular", trial, iter)
			}
			refactors += ws.stats.Refactorizations - before
			pivots++
		}
		for i, v := range ws.btmp[:m] {
			if v != 0 {
				t.Fatalf("trial %d: BTRAN left btmp[%d] = %v", trial, i, v)
			}
		}
	}
	t.Logf("%d pivots (%d in phase 1, %d on an eta file), %d mid-solve refactorisations", pivots, phase1, etaPivots, refactors)
	if pivots < 500 || phase1 == 0 || etaPivots == 0 || refactors == 0 {
		t.Fatalf("coverage too thin: %d pivots, %d in phase 1, %d on an eta file, %d refactorisations",
			pivots, phase1, etaPivots, refactors)
	}
}
