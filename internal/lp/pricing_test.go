package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The references below are the column-wise pricing loops that
// priceRows replaced: every rule walks all n + 2m column codes in
// ascending (or, for the Dantzig refill, circular) order and prices
// each column through its own entries. refPricing carries the state
// they mutate, so a reference run leaves the workspace untouched.
type refPricing struct {
	cand   []int32
	cursor int
	rng    xorshift
}

func snapshotPricing(ws *Workspace) refPricing {
	return refPricing{cand: slices.Clone(ws.cand), cursor: ws.priceCursor, rng: *ws.rng}
}

// refChooseEntering is chooseEntering with full column scans. It also
// reports whether the Dantzig rule refilled its candidate list.
func refChooseEntering(ws *Workspace, mode pricingMode, st *refPricing) (enter int, refilled bool) {
	total := ws.n + 2*ws.m
	switch mode {
	case pricingBland:
		for j := 0; j < total; j++ {
			if ws.basisPos[j] >= 0 || !ws.canEnter(j) {
				continue
			}
			if ws.reducedCost(j) < -blandEps {
				return j, false
			}
		}
		return -1, false
	case pricingRandom:
		count, pick := 0, -1
		for j := 0; j < total; j++ {
			if ws.basisPos[j] >= 0 || !ws.canEnter(j) {
				continue
			}
			if ws.reducedCost(j) < -Eps {
				count++
				if st.rng.intn(count) == 0 {
					pick = j
				}
			}
		}
		return pick, false
	}
	best, bestVal := -1, -Eps
	if len(st.cand) > 0 {
		keep := st.cand[:0]
		for _, j32 := range st.cand {
			j := int(j32)
			if ws.basisPos[j] >= 0 {
				continue
			}
			if v := ws.reducedCost(j); v < -Eps {
				keep = append(keep, j32)
				if v < bestVal {
					best, bestVal = j, v
				}
			}
		}
		st.cand = keep
		if best >= 0 {
			return best, false
		}
	}
	j := st.cursor
	if j >= total {
		j = 0
	}
	for scanned := 0; scanned < total; scanned++ {
		if ws.basisPos[j] < 0 && ws.canEnter(j) {
			if v := ws.reducedCost(j); v < -Eps {
				st.cand = append(st.cand, int32(j))
				if v < bestVal {
					best, bestVal = j, v
				}
			}
		}
		j++
		if j == total {
			j = 0
		}
		if len(st.cand) >= candCap {
			break
		}
	}
	st.cursor = j
	return best, true
}

// refRhoDot is rho . A_code through the column's own entries.
func refRhoDot(ws *Workspace, code int) float64 {
	if code >= ws.n {
		return ws.unitSign(code) * ws.rho[ws.unitRow(code)]
	}
	acc := 0.0
	for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
		acc += ws.rho[ws.colRow[e]] * ws.colVal[e]
	}
	return acc
}

// refDualEntering is dualEntering over every column code.
func refDualEntering(ws *Workspace) int {
	best, bestRatio, bestAlpha := -1, math.Inf(1), 0.0
	for j := 0; j < ws.n+2*ws.m; j++ {
		if ws.basisPos[j] >= 0 || !ws.canEnter(j) {
			continue
		}
		alpha := refRhoDot(ws, j)
		if alpha >= -Eps {
			continue
		}
		d := ws.reducedCost(j)
		if d < 0 {
			d = 0
		}
		ratio := d / -alpha
		if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-9 && -alpha > -bestAlpha) {
			best, bestRatio, bestAlpha = j, ratio, alpha
		}
	}
	return best
}

// refDualFeasible is solveWarm's dual-feasibility check over every
// column code.
func refDualFeasible(ws *Workspace, tol float64) bool {
	for j := 0; j < ws.n+2*ws.m; j++ {
		if ws.basisPos[j] < 0 && ws.canEnter(j) && ws.reducedCost(j) < -tol {
			return false
		}
	}
	return true
}

// checkPriced compares priceRows against the column loops: priced must
// list, in ascending order, exactly the nonbasic columns that may enter
// and whose column-wise value want(j) is below -Eps, and pricedVal must
// carry each of those values bit for bit.
func checkPriced(t *testing.T, ws *Workspace, label string, want func(j int) float64) {
	t.Helper()
	var codes []int32
	var vals []float64
	for j := 0; j < ws.n+2*ws.m; j++ {
		if ws.basisPos[j] < 0 && ws.canEnter(j) {
			if v := want(j); v < -Eps {
				codes = append(codes, int32(j))
				vals = append(vals, v)
			}
		}
	}
	if !slices.Equal(ws.priced, codes) {
		t.Fatalf("%s: priced %v, column-wise %v", label, ws.priced, codes)
	}
	for k, v := range vals {
		if got := ws.pricedVal[k]; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%s of column %d = %v (%#x), column-wise %v (%#x)",
				label, codes[k], got, math.Float64bits(got), v, math.Float64bits(v))
		}
	}
}

// rowDenseY reports whether chooseEntering refills by the column scan
// for the current y.
func rowDenseY(ws *Workspace) bool { return len(ws.yNZ)*rowPriceRatio > ws.m }

// sparseObjectiveModel builds a program of <= rows, every eleventh an
// = row instead, in which only about one column in sixteen has a
// negative cost, so y stays hypersparse for many pivots: the side of
// the Dantzig refill that prices row-wise.
func sparseObjectiveModel(rng *rand.Rand) *Model {
	mdl := NewModel()
	n, m := 300+rng.Intn(200), 200+rng.Intn(100)
	for j := 0; j < n; j++ {
		c := 0.1 + rng.Float64()
		if rng.Intn(16) == 0 {
			c = -1 - rng.Float64()
		}
		mdl.AddVar(c, "")
	}
	rows := make([][]Term, m)
	for j := 0; j < n; j++ {
		for k := 0; k < 2+rng.Intn(3); k++ {
			i := rng.Intn(m)
			rows[i] = append(rows[i], Term{Var: j, Coef: 0.25 + rng.Float64()*2})
		}
	}
	for i, terms := range rows {
		if len(terms) == 0 {
			terms = []Term{{Var: rng.Intn(n), Coef: 1}}
		}
		sense := LE
		if i%11 == 10 {
			sense = EQ // no slack for priceRows to list
		}
		mdl.AddRow(sense, 1+rng.Float64()*4, terms...)
	}
	return mdl
}

// TestRowwisePricingMatchesColumnScan drives the primal simplex by
// hand, as TestSparseKernelsMatchDenseReference does, cycling through
// the Dantzig, random and Bland rules, and before every pivot checks
// the row-wise pricing against the column-wise references: the
// entering column, the candidate list, the cursor and the random
// rule's generator state after chooseEntering; the set of columns
// that price in and each one's reduced cost, bit for bit, and likewise
// each alpha_j = rho.A_j below -Eps for the leaving row; the dual ratio
// test's entering column; and solveWarm's dual-feasibility verdict. The models give both hypersparse y (the row-wise Dantzig
// refill) and dense y (phase-1 covering programs, where the refill
// keeps the column scan).
func TestRowwisePricingMatchesColumnScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var pivots, sparseRefills, denseRefills, random, bland, dual int
	for trial := 0; trial < 48; trial++ {
		var mdl *Model
		switch trial % 4 {
		case 0:
			mdl = randomMixedModel(rng, trial%8 == 4)
		case 1, 2:
			mdl = sparseObjectiveModel(rng)
		default:
			mdl = coverModel(rng, 60+rng.Intn(60), 90+rng.Intn(90), 4)
		}
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
		for iter := 0; iter < 5000; iter++ {
			if ws.phase == 1 && ws.objValue() <= feasTol/2 {
				ws.setPhase(2)
			}
			ws.computeY()
			var nzY []int32
			for i, v := range ws.y[:m] {
				if v != 0 {
					nzY = append(nzY, int32(i))
				}
			}
			if !slices.Equal(ws.yNZ, nzY) {
				t.Fatalf("trial %d iter %d: yNZ = %v, nonzeros of y %v", trial, iter, ws.yNZ, nzY)
			}
			ws.priceRows(ws.y, ws.yNZ, true)
			checkPriced(t, ws, "reduced cost", ws.reducedCost)
			for _, tol := range []float64{Eps, 1e-6} {
				if got, ref := ws.dualFeasible(tol), refDualFeasible(ws, tol); got != ref {
					t.Fatalf("trial %d iter %d: dualFeasible(%g) = %v, column-wise %v", trial, iter, tol, got, ref)
				}
			}

			mode := pricingDantzig
			switch iter % 9 {
			case 7:
				mode = pricingRandom
				random++
			case 8:
				mode = pricingBland
				bland++
			}
			if iter%4 == 1 {
				// Empty the candidate list now and then, so that the
				// Dantzig rule refills from wherever the cursor stands.
				ws.cand = ws.cand[:0]
			}
			st := snapshotPricing(ws)
			ref, refilled := refChooseEntering(ws, mode, &st)
			dense := rowDenseY(ws)
			enter := ws.chooseEntering(mode)
			if enter != ref || !slices.Equal(ws.cand, st.cand) || ws.priceCursor != st.cursor || ws.rng.s != st.rng.s {
				t.Fatalf("trial %d iter %d mode %d: entering %d cand %v cursor %d rng %#x; column-wise %d %v %d %#x",
					trial, iter, mode, enter, ws.cand, ws.priceCursor, ws.rng.s, ref, st.cand, st.cursor, st.rng.s)
			}
			if refilled {
				if dense {
					denseRefills++
				} else {
					sparseRefills++
				}
			}
			if enter < 0 {
				break
			}
			ws.ftran(enter)
			leave := ws.chooseLeaving(mode == pricingBland)
			if leave < 0 {
				break
			}
			ws.loadRho(leave)
			ws.priceRows(ws.rho, ws.rhoNZ, false)
			checkPriced(t, ws, "alpha", func(j int) float64 { return refRhoDot(ws, j) })
			if got, ref := ws.dualEntering(), refDualEntering(ws); got != ref {
				t.Fatalf("trial %d iter %d: dual entering %d, column-wise %d", trial, iter, got, ref)
			} else if got >= 0 {
				dual++
			}
			// loadRho reused the scratch that held wNZ; refresh it.
			ws.ftran(enter)
			ws.pivot(leave, enter)
			if ws.luBad {
				t.Fatalf("trial %d iter %d: refactorisation reported singular", trial, iter)
			}
			pivots++
		}
	}
	t.Logf("%d pivots: %d row-wise and %d column-scan refills, %d random, %d Bland, %d dual ratio tests with an entering column",
		pivots, sparseRefills, denseRefills, random, bland, dual)
	if pivots < 1000 || sparseRefills < 100 || denseRefills < 100 || random == 0 || bland == 0 || dual < 100 {
		t.Fatal("coverage too thin")
	}
}
