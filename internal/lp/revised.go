package lp

// The revised simplex engine. The constraint matrix is compiled once
// per solve into column-wise sparse storage, plus a row-wise copy for
// pricing; iterations maintain the basis as a sparse LU factorisation
// plus a product-form eta file (see lu.go) and the basic-value vector.
// FTRAN and BTRAN are hypersparse triangular solves through L, U and
// the etas; pivots append one eta column instead of updating an
// inverse, and the factors are rebuilt from scratch only when the eta
// file outgrows them or the basic values drift. Logical columns —
// slack, surplus and artificial — are implicit unit columns and never
// stored.
//
// An iteration costs the entries it touches rather than m or n:
// computeY and loadRho hand BTRAN only their nonzero slots (cbNZ lists
// the nonzero basic costs), BTRAN returns the ascending nonzero rows of
// y and rho (yNZ, rhoNZ), and FTRAN returns the ascending nonzero slots
// of w (wNZ), which the ratio test, the basic-value update and the eta
// append walk instead of all m rows. Pricing (priceRows) walks y's or
// rho's nonzero rows through the row-wise copy (rowPtr, rowCol,
// rowEnt) and forms y.A_j only for the columns those rows touch, not
// for all n: ~79 entries per Dantzig refill on the Figure 11 programs
// against ~2,400 columns for a scan. Only a dense y sends the Dantzig
// refill back to its circular column scan (see chooseEntering).
//
// The solves compute every nonzero with the same floating-point
// operations in the same order as dense loops would, and pricing
// subtracts each column's terms in ascending row order, as its column
// loop does, skipping only terms with y_i = 0: pivots, iteration
// counts, X, Objective and Basis are those of a dense engine; only an
// exact-zero entry of y may carry the other sign, so a zero
// Solution.Dual may read -0 where a dense solve gave +0 or the
// reverse. Nothing depends on that sign: pricing and the ratio tests
// compare values, and the callers read duals only through comparisons
// or math.Max(0, ·) (DESIGN.md §5).
//
// Column code space, for n structural variables and m rows:
//
//	[0, n)          structural variable j
//	n + 2i          the +e_i unit column of row i
//	n + 2i + 1      the -e_i unit column of row i
//
// Whether a unit column is the row's slack (cost 0, may enter the
// basis) or an artificial (phase-1 cost 1, may start basic but never
// enters) depends on the row sense: a <= row relaxes along +e_i, a >=
// row along -e_i, and an = row owns no slack at all. The cold start
// picks, per row, whichever unit column is feasible for the sign of the
// right-hand side; phase 1 is needed exactly when some of those picks
// are artificials.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// blandEps is the widened zero tolerance used in Bland mode, so that
// reduced costs oscillating within float noise do not re-enter.
const blandEps = 1e-8

// candCap bounds the partial-pricing candidate list: a pricing pass
// stops scanning once it has collected this many improving columns
// (or proved optimality by a full wrap).
const candCap = 64

// rowPriceRatio picks how the Dantzig rule refills its candidate list:
// through y's nonzero rows while y has at most one nonzero row in
// rowPriceRatio, by the circular column scan when y is denser.
const rowPriceRatio = 8

// driftCheckEvery is the primal iteration interval of the basic-value
// drift check (a residual ||B·x_B - b||_inf against the compiled
// columns); a drifted iterate triggers a refactorisation.
const driftCheckEvery = 96

// stopCheckMask gates the cooperative-cancellation poll: the stop flag
// is loaded every stopCheckMask+1 iterations (a power of two so the
// gate is a single AND), bounding both the poll's cost in the hot loop
// and the latency between a cancellation request and the solve
// observing it to at most that many pivots.
const stopCheckMask = 63

// WorkspaceStats accumulates solver activity over the lifetime of a
// Workspace.
type WorkspaceStats struct {
	Solves           int // solves that ran the iteration loop (cold or warm)
	ColdSolves       int // cold two-phase solves (including warm-start fallbacks)
	WarmAttempts     int // SolveFrom calls that carried a basis
	WarmHits         int // warm starts that completed on the warm path
	Factorizations   int // sparse LU factorisations built (every solve needs one)
	Refactorizations int // mid-solve rebuilds: eta-file overflow or detected drift
	Iterations       int // primal simplex pivots
	DualIterations   int // dual simplex pivots
}

// Workspace owns every scratch allocation of the revised simplex — the
// compiled sparse columns, the LU factors with their eta file and the
// iterate vectors — so repeated solves reuse memory instead of
// reallocating per call. A Workspace must not be used from multiple
// goroutines concurrently.
type Workspace struct {
	// Compiled model, standardised to min sense.
	n, m   int
	colPtr []int32
	colRow []int32
	colVal []float64
	obj    []float64 // structural costs, min sense
	rhs    []float64
	sense  []Sense

	// The same entries laid out by row, for row-wise pricing: row i's
	// entries are rowPtr[i]..rowPtr[i+1], each a column and the index of
	// its value in colVal, in ascending column order.
	rowPtr  []int32
	rowCol  []int32
	rowEnt  []int32
	negCost []int32 // ascending structural columns with cost below -Eps

	// Factorisation and iterate state.
	lu       luFactor  // sparse basis factorisation + eta file
	basis    []int     // column code per row
	basisPos []int     // column code -> basis row, or -1
	xb       []float64 // basic variable values
	cb       []float64 // basic costs under the current phase
	cbNZ     []int32   // ascending slots where cb is nonzero
	y        []float64 // simplex multipliers c_B . B^-1
	yNZ      []int32   // ascending nonzero rows of y (see btran)
	w        []float64 // FTRAN result B^-1 . A_enter
	wNZ      []int32   // ascending nonzero slots of w (lu scratch; see ftran)
	rho      []float64 // a row of B^-1 (dual simplex, eviction)
	rhoNZ    []int32   // ascending nonzero rows of rho
	ftmp     []float64 // dense right-hand-side scratch (row space)
	btmp     []float64 // BTRAN input scratch (slot space), zero outside a BTRAN
	artRow   []bool    // row's basic column is an artificial (ratio-test pinning)
	nart     int       // number of basic artificials
	luBad    bool      // a mid-solve refactorisation failed; bail out

	// Partial pricing: the candidate list of improving columns and the
	// rolling scan cursor, both reset at every solve.
	cand        []int32
	priceCursor int

	// Row-wise pricing (priceRows): the per-column accumulator, the
	// bitset of the columns it touched, and the priced columns with
	// their values in ascending code order.
	dj        []float64
	djMark    []uint64
	priced    []int32
	pricedVal []float64

	// Compilation scratch.
	stamp []int32
	slot  []int32

	phase      int
	improveEps float64
	rhsScale   float64
	rng        *xorshift
	stats      WorkspaceStats

	// stop, when non-nil, is polled every stopCheckMask+1 iterations by
	// the primal and dual loops; a set flag aborts the solve with
	// ErrCanceled. See SetStop.
	stop *atomic.Bool
}

// NewWorkspace returns an empty solver workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Stats returns the cumulative solver statistics of this workspace.
func (ws *Workspace) Stats() WorkspaceStats { return ws.stats }

// SetStop installs (or, with nil, removes) a cancellation flag shared
// with the caller. While a solve runs, the simplex loops poll the flag
// every few dozen iterations; once it reads true the solve aborts and
// returns ErrCanceled. The flag is the caller's: it is never cleared
// by the workspace, so arm a fresh (or freshly reset) flag per solve.
// Setting the flag is safe from any goroutine; SetStop itself must be
// called only between solves, like every other workspace method.
func (ws *Workspace) SetStop(stop *atomic.Bool) { ws.stop = stop }

// stopped reports whether a cancellation flag is installed and set.
func (ws *Workspace) stopped() bool { return ws.stop != nil && ws.stop.Load() }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// compile standardises the model into the workspace: min-sense
// objective, per-row rhs/sense, and the structural columns in CSC form
// with duplicate terms per row summed.
func (ws *Workspace) compile(mdl *Model, perturb float64) {
	n := len(mdl.obj)
	m := len(mdl.rows)
	ws.n, ws.m = n, m

	ws.obj = growF(ws.obj, n)
	copy(ws.obj, mdl.obj)
	if mdl.maximize {
		for j := range ws.obj {
			ws.obj[j] = -ws.obj[j]
		}
	}
	prng := newXorshift(uint64(m)*0x9e3779b9 + uint64(n) + 7)
	ws.rhs = growF(ws.rhs, m)
	if cap(ws.sense) < m {
		ws.sense = make([]Sense, m)
	}
	ws.sense = ws.sense[:m]
	ws.rhsScale = 0
	for i := range mdl.rows {
		r := mdl.rows[i].rhs
		if perturb > 0 {
			r += perturb * (1 + math.Abs(r)) * (1 + float64(prng.intn(1000))/1000)
		}
		ws.rhs[i] = r
		ws.sense[i] = mdl.rows[i].sense
		if a := math.Abs(r); a > ws.rhsScale {
			ws.rhsScale = a
		}
	}

	// Count deduped entries, then fill the CSC arrays. stamp[v] holds
	// the last row that touched variable v; slot[v] its entry index.
	ws.stamp = growI32(ws.stamp, n)
	ws.slot = growI32(ws.slot, n)
	for j := range ws.stamp {
		ws.stamp[j] = -1
	}
	ws.colPtr = growI32(ws.colPtr, n+1)
	for j := range ws.colPtr {
		ws.colPtr[j] = 0
	}
	nnz := 0
	for i := range mdl.rows {
		for _, t := range mdl.rows[i].terms {
			if ws.stamp[t.Var] != int32(i) {
				ws.stamp[t.Var] = int32(i)
				ws.colPtr[t.Var+1]++
				nnz++
			}
		}
	}
	for j := 0; j < n; j++ {
		ws.colPtr[j+1] += ws.colPtr[j]
	}
	ws.colRow = growI32(ws.colRow, nnz)
	ws.colVal = growF(ws.colVal, nnz)
	next := ws.slot // reuse as per-column fill cursor
	for j := 0; j < n; j++ {
		next[j] = ws.colPtr[j]
	}
	for j := range ws.stamp {
		ws.stamp[j] = -1
	}
	for i := range mdl.rows {
		for _, t := range mdl.rows[i].terms {
			if ws.stamp[t.Var] == int32(i) {
				// Duplicate within the row: sum into the open entry.
				ws.colVal[next[t.Var]-1] += t.Coef
				continue
			}
			ws.stamp[t.Var] = int32(i)
			e := next[t.Var]
			ws.colRow[e] = int32(i)
			ws.colVal[e] = t.Coef
			next[t.Var] = e + 1
		}
	}

	// The row-wise copy, by counting sort. rowPtr[i+1] is row i's fill
	// cursor and ends at the row's end, so no other cursor is needed.
	ws.rowPtr = growI32(ws.rowPtr, m+2)
	clear(ws.rowPtr)
	for _, i := range ws.colRow[:nnz] {
		ws.rowPtr[i+2]++
	}
	for i := 2; i < m+2; i++ {
		ws.rowPtr[i] += ws.rowPtr[i-1]
	}
	ws.rowCol = growI32(ws.rowCol, nnz)
	ws.rowEnt = growI32(ws.rowEnt, nnz)
	for j := 0; j < n; j++ {
		for e := ws.colPtr[j]; e < ws.colPtr[j+1]; e++ {
			at := ws.rowPtr[ws.colRow[e]+1]
			ws.rowCol[at] = int32(j)
			ws.rowEnt[at] = e
			ws.rowPtr[ws.colRow[e]+1] = at + 1
		}
	}
	ws.rowPtr = ws.rowPtr[:m+1]
	ws.negCost = ws.negCost[:0]
	for j, c := range ws.obj[:n] {
		if c < -Eps {
			ws.negCost = append(ws.negCost, int32(j))
		}
	}
}

// ensureIterState sizes the factorisation and iterate arrays for the
// compiled model and resets the per-solve pricing state.
func (ws *Workspace) ensureIterState() {
	n, m := ws.n, ws.m
	ws.basis = growI(ws.basis, m)
	ws.basisPos = growI(ws.basisPos, n+2*m)
	ws.xb = growF(ws.xb, m)
	ws.cb = growF(ws.cb, m)
	ws.cbNZ = growI32(ws.cbNZ, m)[:0]
	ws.y = growF(ws.y, m)
	ws.w = growF(ws.w, m)
	ws.rho = growF(ws.rho, m)
	ws.dj = growF(ws.dj, n)
	if nw := (n + 63) / 64; cap(ws.djMark) < nw {
		ws.djMark = make([]uint64, nw)
	} else {
		ws.djMark = ws.djMark[:nw]
	}
	// priceRows leaves the marks clear; clearing them per solve as well
	// keeps a solve that panicked mid-pricing from poisoning the next.
	clear(ws.djMark)
	ws.ftmp = growF(ws.ftmp, m)
	ws.btmp = growF(ws.btmp, m)
	// btran leaves btmp zero; clearing it per solve as well keeps a
	// solve that panicked mid-BTRAN from poisoning the next one.
	clear(ws.btmp)
	if cap(ws.artRow) < m {
		ws.artRow = make([]bool, m)
	}
	ws.artRow = ws.artRow[:m]
	for i := range ws.artRow {
		ws.artRow[i] = false
	}
	ws.nart = 0
	for j := range ws.basisPos {
		ws.basisPos[j] = -1
	}
	ws.cand = ws.cand[:0]
	ws.priceCursor = 0
	ws.luBad = false
}

// Column-code helpers.

func (ws *Workspace) unitRow(code int) int { return (code - ws.n) / 2 }

func (ws *Workspace) unitSign(code int) float64 {
	if (code-ws.n)%2 == 1 {
		return -1
	}
	return 1
}

// isSlack reports whether the unit column relaxes its row in the row's
// natural direction (and so has cost 0 and may enter the basis).
func (ws *Workspace) isSlack(code int) bool {
	if code < ws.n {
		return false
	}
	switch ws.sense[ws.unitRow(code)] {
	case LE:
		return ws.unitSign(code) > 0
	case GE:
		return ws.unitSign(code) < 0
	}
	return false
}

func (ws *Workspace) isArtificial(code int) bool {
	return code >= ws.n && !ws.isSlack(code)
}

func (ws *Workspace) canEnter(code int) bool {
	return code < ws.n || ws.isSlack(code)
}

// costOf returns the column's cost under the current phase.
func (ws *Workspace) costOf(code int) float64 {
	if ws.phase == 1 {
		if ws.isArtificial(code) {
			return 1
		}
		return 0
	}
	if code < ws.n {
		return ws.obj[code]
	}
	return 0
}

func (ws *Workspace) setPhase(p int) {
	ws.phase = p
	ws.cbNZ = ws.cbNZ[:0]
	for i := 0; i < ws.m; i++ {
		c := ws.costOf(ws.basis[i])
		ws.cb[i] = c
		if c != 0 {
			ws.cbNZ = append(ws.cbNZ, int32(i))
		}
	}
}

// setCost sets the basic cost of slot i and keeps cbNZ in step.
func (ws *Workspace) setCost(i int, c float64) {
	was := ws.cb[i] != 0
	ws.cb[i] = c
	if was == (c != 0) {
		return
	}
	at, _ := slices.BinarySearch(ws.cbNZ, int32(i))
	if c != 0 {
		ws.cbNZ = slices.Insert(ws.cbNZ, at, int32(i))
	} else {
		ws.cbNZ = slices.Delete(ws.cbNZ, at, at+1)
	}
}

func (ws *Workspace) objValue() float64 {
	v := 0.0
	for _, i := range ws.cbNZ {
		v += ws.cb[i] * ws.xb[i]
	}
	return v
}

// computeY prices the basis: y = c_B . B^-1, one BTRAN through the eta
// file and the transposed LU factors, loaded with the nonzero basic
// costs only; yNZ receives y's ascending nonzero rows.
func (ws *Workspace) computeY() {
	f := &ws.lu
	for _, i := range ws.cbNZ {
		ws.btmp[i] = ws.cb[i]
	}
	f.nzList = append(f.nzList[:0], ws.cbNZ...)
	ws.yNZ = f.btran(ws.btmp[:ws.m], ws.y[:ws.m], ws.yNZ)
}

// reducedCost returns d_j = c_j - y.A_j for the current phase; callers
// must have refreshed y.
func (ws *Workspace) reducedCost(code int) float64 {
	if code < ws.n {
		d := ws.costOf(code)
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			d -= ws.y[ws.colRow[e]] * ws.colVal[e]
		}
		return d
	}
	return ws.costOf(code) - ws.unitSign(code)*ws.y[ws.unitRow(code)]
}

// ftran computes w = B^-1 . A_code: load the sparse column, solve
// through L, U and the eta file, and keep w's nonzero slots in wNZ.
func (ws *Workspace) ftran(code int) {
	f := &ws.lu
	if code >= ws.n {
		f.ftranLoad(int32(ws.unitRow(code)), ws.unitSign(code))
	} else {
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			f.ftranLoad(ws.colRow[e], ws.colVal[e])
		}
	}
	ws.wNZ = f.ftran(ws.w[:ws.m])
}

// loadRho extracts row r of B^-1 into ws.rho (a BTRAN of e_r) and its
// ascending nonzero rows into rhoNZ.
func (ws *Workspace) loadRho(r int) {
	f := &ws.lu
	ws.btmp[r] = 1
	f.nzList = append(f.nzList[:0], int32(r))
	ws.rhoNZ = f.btran(ws.btmp[:ws.m], ws.rho[:ws.m], ws.rhoNZ)
}

// priceRows prices through the row-wise copy of A and lists, in
// ascending code order, the nonbasic columns that may enter and price
// in: for v = y with cost set, those whose reduced cost c_j - y.A_j is
// below -Eps; for v = rho without cost, those whose alpha_j = rho.A_j
// is below -Eps. priced receives their codes and pricedVal the reduced
// cost or alpha_j. nz lists v's nonzero rows in ascending order. Only
// the structural columns those rows touch, the slacks of those rows
// and, with cost in phase 2, the columns of cost below -Eps can price
// in: every other column's value is its cost, at least -Eps, or zero.
//
// Each column's terms are subtracted in ascending row order, as the
// column loop of reducedCost subtracts them, and only terms with v_i = 0
// are skipped, which subtract an exact zero. A reduced cost is
// therefore bit-identical to the column loop's; alpha_j, formed as
// -(0 - sum), is bit-identical to the column sum 0 + sum, because
// rounding to nearest is symmetric. (Only a zero could differ, in its
// sign, and no zero prices in.)
func (ws *Workspace) priceRows(v []float64, nz []int32, cost bool) {
	n := ws.n
	sign := 1.0 // d_j as accumulated; -1 turns -(rho.A_j) into alpha_j
	if !cost {
		sign = -1
	}
	// Structural columns cost nothing in phase 1.
	objCost := cost && ws.phase == 2
	if objCost {
		for _, j := range ws.negCost {
			ws.dj[j] = ws.obj[j]
			setBit(ws.djMark, j)
		}
	}
	for _, i := range nz {
		vi := v[i]
		for e := ws.rowPtr[i]; e < ws.rowPtr[i+1]; e++ {
			j := ws.rowCol[e]
			if !hasBit(ws.djMark, j) {
				setBit(ws.djMark, j)
				ws.dj[j] = 0
				if objCost {
					ws.dj[j] = ws.obj[j]
				}
			}
			ws.dj[j] -= vi * ws.colVal[ws.rowEnt[e]]
		}
	}
	ws.priced, ws.pricedVal = ws.priced[:0], ws.pricedVal[:0]
	for wi, word := range ws.djMark {
		if word == 0 {
			continue
		}
		ws.djMark[wi] = 0
		for ; word != 0; word &= word - 1 {
			j := wi<<6 + bits.TrailingZeros64(word)
			if d := sign * ws.dj[j]; d < -Eps && ws.basisPos[j] < 0 {
				ws.priced = append(ws.priced, int32(j))
				ws.pricedVal = append(ws.pricedVal, d)
			}
		}
	}
	for _, i := range nz {
		code := n + 2*int(i)
		switch ws.sense[i] {
		case EQ:
			continue
		case GE:
			code++
		}
		// A slack costs 0 in both phases: 0 - sign.y_i, as reducedCost,
		// or alpha = sign.rho_i.
		if d := sign * (0 - ws.unitSign(code)*v[i]); d < -Eps && ws.basisPos[code] < 0 {
			ws.priced = append(ws.priced, int32(code))
			ws.pricedVal = append(ws.pricedVal, d)
		}
	}
}

// pivot brings column enter (with its FTRAN image already in ws.w and
// ws.wNZ) into the basis at row leave: update the basic values, append
// the pivot to the eta file and refactorise if the file has outgrown
// the factors.
func (ws *Workspace) pivot(leave, enter int) {
	w := ws.w
	inv := 1 / w[leave]
	theta := ws.xb[leave] * inv
	for _, i32 := range ws.wNZ {
		i := int(i32)
		if i == leave {
			continue
		}
		ws.xb[i] -= theta * w[i]
		if ws.xb[i] < 0 && ws.xb[i] > -Eps {
			ws.xb[i] = 0
		}
	}
	ws.xb[leave] = theta
	ws.lu.appendEta(w, ws.wNZ, leave)
	ws.basisPos[ws.basis[leave]] = -1
	ws.basis[leave] = enter
	ws.basisPos[enter] = leave
	ws.setCost(leave, ws.costOf(enter))
	if ws.artRow[leave] {
		// Entering columns are never artificial (canEnter), so a pivot
		// can only shrink the artificial set.
		ws.artRow[leave] = false
		ws.nart--
	}
	if ws.lu.needRefactor() {
		ws.refactorInPlace()
	}
}

// refactorInPlace rebuilds the LU factors from the current basis and
// recomputes the basic values from the right-hand side, bounding the
// drift the eta-file updates accumulate. A numerically singular
// rebuild (possible only after severe round-off) marks the workspace;
// the iteration loops bail out to their cold or perturbed fallbacks.
func (ws *Workspace) refactorInPlace() {
	if !ws.factorize() {
		ws.luBad = true
		return
	}
	ws.stats.Factorizations++
	ws.stats.Refactorizations++
	ws.recomputeXB()
}

// recomputeXB refreshes xb = B^-1 b through the fresh factors,
// clamping sub-Eps negativity noise exactly like the pivot updates do.
func (ws *Workspace) recomputeXB() {
	m := ws.m
	a := ws.ftmp[:m]
	copy(a, ws.rhs[:m])
	ws.lu.lowerSolve(a)
	ws.lu.upperSolve(a, ws.xb[:m])
	for i := 0; i < m; i++ {
		if ws.xb[i] < 0 && ws.xb[i] > -Eps {
			ws.xb[i] = 0
		}
	}
}

// driftedXB reports whether the incrementally updated basic values
// have drifted from B^-1 b: it computes the residual ||B·x_B - b||_inf
// against the compiled columns (O(m + nnz), no solve needed).
func (ws *Workspace) driftedXB() bool {
	m := ws.m
	a := ws.ftmp[:m]
	copy(a, ws.rhs[:m])
	for pos := 0; pos < m; pos++ {
		v := ws.xb[pos]
		if v == 0 {
			continue
		}
		code := ws.basis[pos]
		if code >= ws.n {
			a[ws.unitRow(code)] -= ws.unitSign(code) * v
			continue
		}
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			a[ws.colRow[e]] -= ws.colVal[e] * v
		}
	}
	tol := 0.5 * feasTol * (1 + ws.rhsScale)
	for _, v := range a {
		if v > tol || v < -tol {
			return true
		}
	}
	return false
}

type iterStatus int

const (
	statusOptimal iterStatus = iota
	statusUnbounded
	statusIterLimit
	statusCanceled
)

type pricingMode int

const (
	pricingDantzig pricingMode = iota
	pricingRandom
	pricingBland
)

// chooseEntering picks the entering column under the given pricing
// rule; y must be fresh. Returns -1 when no column prices in.
//
// The default (Dantzig) rule runs partial pricing with a candidate
// list: first the surviving candidates of the previous pass are
// re-priced and the most negative wins; when the list runs dry, a
// circular scan from a rolling cursor refills it with up to candCap
// improving columns (continuing all the way around when none appear,
// so returning -1 still proves optimality). Cold solves therefore stop
// paying a full column scan per pivot.
//
// Outside the candidate list, pricing goes through y's nonzero rows
// (priceRows) rather than every column: only the columns those rows
// touch, the slacks of those rows and, in phase 2, the columns of cost
// below -Eps can price in. The random and Bland anti-cycling modes walk
// that set in ascending code order, which is the order of a full scan,
// so they keep the termination guarantees a full scan gives them. The
// Dantzig refill takes from it exactly the columns, winner and next
// cursor the circular scan would find — unless y has more than one
// nonzero row in rowPriceRatio: the scan then stops after a few hundred
// columns on plentiful improving ones, while the row-wise pass would
// read most of A, so a dense y keeps the scan.
func (ws *Workspace) chooseEntering(mode pricingMode) int {
	total := ws.n + 2*ws.m
	switch mode {
	case pricingBland:
		ws.priceRows(ws.y, ws.yNZ, true)
		for k, d := range ws.pricedVal {
			if d < -blandEps {
				return int(ws.priced[k])
			}
		}
		return -1
	case pricingRandom:
		// Reservoir-sample uniformly among improving columns.
		ws.priceRows(ws.y, ws.yNZ, true)
		pick := -1
		for k, j := range ws.priced {
			if ws.rng.intn(k+1) == 0 {
				pick = int(j)
			}
		}
		return pick
	default:
		best, bestVal := -1, -Eps
		if len(ws.cand) > 0 {
			keep := ws.cand[:0]
			for _, j32 := range ws.cand {
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
			ws.cand = keep
			if best >= 0 {
				return best
			}
		}
		j := ws.priceCursor
		if j >= total {
			j = 0
		}
		if len(ws.yNZ)*rowPriceRatio <= ws.m {
			// The list is empty here: a surviving candidate would have won.
			return ws.refillRows(j)
		}
		for scanned := 0; scanned < total; scanned++ {
			if ws.basisPos[j] < 0 && ws.canEnter(j) {
				if v := ws.reducedCost(j); v < -Eps {
					ws.cand = append(ws.cand, int32(j))
					if v < bestVal {
						best, bestVal = j, v
					}
				}
			}
			j++
			if j == total {
				j = 0
			}
			if len(ws.cand) >= candCap {
				break
			}
		}
		ws.priceCursor = j
		return best
	}
}

// refillRows is the Dantzig refill through priceRows: it walks the
// improving columns circularly from the cursor start, as the column
// scan does, keeps the first candCap as candidates, returns the first
// strict minimum among them and leaves the cursor just past the last
// one taken — or at start when fewer turn up, where a full scan would
// stop too.
func (ws *Workspace) refillRows(start int) int {
	ws.priceRows(ws.y, ws.yNZ, true)
	codes := ws.priced
	best, bestVal := -1, -Eps
	next := start
	first, _ := slices.BinarySearch(codes, int32(start))
	for k := range codes {
		at := first + k
		if at >= len(codes) {
			at -= len(codes)
		}
		j := int(codes[at])
		ws.cand = append(ws.cand, int32(j))
		if v := ws.pricedVal[at]; v < bestVal {
			best, bestVal = j, v
		}
		if len(ws.cand) >= candCap {
			if next = j + 1; next == ws.n+2*ws.m {
				next = 0
			}
			break
		}
	}
	ws.priceCursor = next
	return best
}

// chooseLeaving runs a Harris-style two-pass ratio test over the
// nonzeros of ws.w (rows where w is zero never block): find the minimum
// ratio, then among rows within tolerance of it pick the largest pivot
// element, the first in row order on a tie (numerical stability). In
// Bland mode the tie-break switches to the smallest basis column code,
// which guarantees termination under degeneracy.
//
// Rows whose basic variable is an artificial sitting at zero are
// pinned: the artificial must never move off zero again, so *any*
// nonzero pivot element — either sign — forces it out at ratio ~0.
// This is the lazy eviction of the phase-1 artificials: instead of an
// explicit O(rows · columns) eviction sweep after phase 1, an
// artificial leaves the basis the first time a pivot touches its row,
// and rows the optimisation never touches keep theirs, harmlessly
// basic at zero (the redundant-constraint case). Such pivots are
// degenerate but cannot cycle — an artificial never re-enters.
func (ws *Workspace) chooseLeaving(bland bool) int {
	w := ws.w
	pinned := ws.nart > 0
	bestRatio := math.Inf(1)
	for _, i32 := range ws.wNZ {
		i := int(i32)
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
	for _, i32 := range ws.wNZ {
		i := int(i32)
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

// leaveCoef returns the effective ratio-test coefficient of row i: the
// FTRAN value itself, except that a basic artificial at (or within the
// phase-1 residual tolerance of) zero is pinned and blocks movement in
// either direction. The threshold is feasTol, not Eps: phase 1 stops
// at an artificial *sum* below feasTol, so an individual artificial
// may carry up to that much residual — pinning only exact zeros would
// let a phase-2 pivot with a negative coefficient regrow such a
// residual arbitrarily and report a constraint-violating optimum. The
// artRow bitmap is maintained by the basis bookkeeping so the common
// no-artificials case never pays the per-row classification.
func (ws *Workspace) leaveCoef(i int, wi float64) float64 {
	if wi < 0 && ws.artRow[i] && ws.xb[i] <= feasTol {
		return -wi
	}
	return wi
}

// artificialsClean reports whether every basic artificial still sits
// within the feasibility tolerance. A violated artificial at an
// "optimal" basis means the solve silently relaxed its row — callers
// must treat the solve as failed rather than extract the solution.
func (ws *Workspace) artificialsClean() bool {
	if ws.nart == 0 {
		return true
	}
	for i := 0; i < ws.m; i++ {
		if ws.artRow[i] && ws.xb[i] > feasTol {
			return false
		}
	}
	return true
}

// primal runs simplex pivots until optimality, unboundedness, the
// iteration cap, or until the objective reaches stopBelow (a known
// lower bound on the objective; phase 1 passes its feasibility
// threshold so a feasible-at-start program exits immediately instead of
// pivoting around a degenerate optimum).
//
// Pricing starts with the partial-pricing Dantzig rule; under
// prolonged degeneracy it falls back to a seeded random-edge rule
// (which escapes cycles with probability one and is far faster than
// Bland in practice), and finally to Bland's rule with a widened zero
// tolerance. Every driftCheckEvery iterations the basic values are
// checked against B^-1 b and a drifted iterate forces an early
// refactorisation.
func (ws *Workspace) primal(stopBelow float64) (int, iterStatus) {
	m := ws.m
	total := ws.n + 2*m
	maxIter := 200*(m+total) + 2000
	if ws.improveEps == 0 {
		// Perturbed rescue attempt: cap the effort so a pathological
		// program fails in seconds rather than minutes.
		maxIter = 40*(m+total) + 2000
	}
	stall := 0
	mode := pricingDantzig
	obj := ws.objValue()
	lastObj := obj
	stallLimit := 8*(m+total) + 500
	for iter := 0; iter < maxIter; iter++ {
		if ws.luBad {
			return iter, statusIterLimit
		}
		if iter&stopCheckMask == 0 && ws.stopped() {
			return iter, statusCanceled
		}
		if obj <= stopBelow {
			return iter, statusOptimal
		}
		if stall > stallLimit {
			// Hopeless degenerate plateau: bail out so the caller can
			// retry with a perturbed right-hand side.
			return iter, statusIterLimit
		}
		if iter%driftCheckEvery == driftCheckEvery-1 && ws.lu.etas() > 0 && ws.driftedXB() {
			ws.refactorInPlace()
			if ws.luBad {
				return iter, statusIterLimit
			}
		}
		ws.computeY()
		enter := ws.chooseEntering(mode)
		if enter < 0 {
			return iter, statusOptimal
		}
		ws.ftran(enter)
		leave := ws.chooseLeaving(mode == pricingBland)
		if leave < 0 {
			return iter, statusUnbounded
		}
		leavingArt := ws.artRow[leave]
		ws.pivot(leave, enter)
		if obj = ws.objValue(); obj < lastObj-ws.improveEps {
			lastObj = obj
			stall = 0
			mode = pricingDantzig
		} else if !leavingArt {
			// Degenerate pivots that evict an artificial are structural
			// progress (each one happens at most once per artificial), so
			// they never count towards the anti-cycling ladder.
			stall++
			switch {
			case stall > 4*(m+50):
				mode = pricingBland
			case stall > m/4+20:
				mode = pricingRandom
			}
		}
	}
	return maxIter, statusIterLimit
}

// dualSimplex restores primal feasibility of a dual-feasible basis
// (negative basic values appear when rows were appended to a previously
// optimal basis). Returns statusOptimal on success, statusIterLimit
// when it cannot finish on the warm path (the caller falls back to a
// cold solve) and statusCanceled when the stop flag fired.
func (ws *Workspace) dualSimplex() (int, iterStatus) {
	m := ws.m
	total := ws.n + 2*m
	maxIter := 50*(m+total) + 1000
	for iter := 0; iter < maxIter; iter++ {
		if ws.luBad {
			return iter, statusIterLimit
		}
		if iter&stopCheckMask == 0 && ws.stopped() {
			return iter, statusCanceled
		}
		// Leaving: the most negative basic value.
		r, worst := -1, -feasTol
		for i := 0; i < m; i++ {
			if ws.xb[i] < worst {
				worst, r = ws.xb[i], i
			}
		}
		if r < 0 {
			return iter, statusOptimal
		}
		ws.loadRho(r)
		ws.computeY()
		best := ws.dualEntering()
		if best < 0 {
			// No pivot can lift the violated row: the appended rows are
			// (numerically) contradictory. Let the cold path decide.
			return iter, statusIterLimit
		}
		ws.ftran(best)
		if ws.w[r] >= -Eps {
			return iter, statusIterLimit // pivot vanished under FTRAN: numerics
		}
		ws.pivot(r, best)
	}
	return maxIter, statusIterLimit
}

// dualEntering runs the dual ratio test for the leaving row whose row
// of B^-1 is in rho, with y fresh: min d_j / -alpha_j over the columns
// with alpha_j = rho.A_j < -Eps, breaking near-ties towards the larger
// |pivot|. priceRows lists those columns in ascending code order, the
// order of a full scan, which the tie-break depends on.
func (ws *Workspace) dualEntering() int {
	ws.priceRows(ws.rho, ws.rhoNZ, false)
	best, bestRatio, bestAlpha := -1, math.Inf(1), 0.0
	for k, alpha := range ws.pricedVal {
		j := int(ws.priced[k])
		d := ws.reducedCost(j)
		if d < 0 {
			d = 0 // dual feasibility noise
		}
		ratio := d / -alpha
		if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-9 && -alpha > -bestAlpha) {
			best, bestRatio, bestAlpha = j, ratio, alpha
		}
	}
	return best
}

// dualFeasible reports whether no column that may enter has a reduced
// cost below -tol, for tol >= Eps; y must be fresh.
func (ws *Workspace) dualFeasible(tol float64) bool {
	ws.priceRows(ws.y, ws.yNZ, true)
	for _, d := range ws.pricedVal {
		if d < -tol {
			return false
		}
	}
	return true
}

// extract fills the primal values, objective and duals of an optimal
// basis into sol.
func (ws *Workspace) extract(mdl *Model, sol *Solution) {
	for i, b := range ws.basis[:ws.m] {
		if b < ws.n {
			sol.X[b] = ws.xb[i]
		}
	}
	objVal := 0.0
	for j, c := range ws.obj[:ws.n] {
		objVal += c * sol.X[j]
	}
	if mdl.maximize {
		sol.Objective = -objVal
	} else {
		sol.Objective = objVal
	}
	ws.computeY()
	for i := 0; i < ws.m; i++ {
		d := ws.y[i]
		if mdl.maximize {
			d = -d
		}
		sol.Dual[i] = d
	}
	sol.Status = Optimal
}

// Basis encoding: structural columns are stored as their variable
// index (stable under growth); unit columns as ^(2*row + minusBit),
// which is independent of the variable count.

func encodeBasisCol(code, n int) int {
	if code < n {
		return code
	}
	return ^(code - n)
}

func decodeBasisCol(enc, n int) int {
	if enc >= 0 {
		return enc
	}
	return n + ^enc
}

func (ws *Workspace) exportBasis() Basis {
	cols := make([]int, ws.m)
	for i, code := range ws.basis[:ws.m] {
		cols[i] = encodeBasisCol(code, ws.n)
	}
	return Basis{cols: cols, valid: true}
}

// solveCold runs the classic two-phase solve from the diagonal unit
// basis.
func (ws *Workspace) solveCold(mdl *Model, perturb float64) (*Solution, error) {
	ws.stats.Solves++
	ws.stats.ColdSolves++
	ws.compile(mdl, perturb)
	n, m := ws.n, ws.m
	ws.ensureIterState()
	ws.rng = newXorshift(uint64(m)*2654435761 + uint64(n+2*m) + 1)
	ws.improveEps = Eps
	if perturb > 0 {
		// Perturbed pivots make strictly positive but sub-Eps progress;
		// any strict decrease counts, otherwise the stall bailout would
		// defeat the perturbation.
		ws.improveEps = 0
	}

	nart := 0
	for i := 0; i < m; i++ {
		// Per row, the unit column that is feasible for the sign of the
		// right-hand side; on a tie (rhs = 0) prefer whichever is the
		// row's slack, so zero-rhs inequalities — the cut rows of the
		// steady-state masters — start basic on their slack instead of
		// an artificial that phase 2 would have to evict again.
		code := n + 2*i
		if ws.rhs[i] < 0 || (ws.rhs[i] == 0 && ws.sense[i] == GE) {
			code++
		}
		ws.basis[i] = code
		ws.basisPos[code] = i
		ws.xb[i] = math.Abs(ws.rhs[i])
		if ws.isArtificial(code) {
			nart++
			ws.artRow[i] = true
		}
	}
	ws.nart = nart
	// The initial basis is a ±1 diagonal; its factorisation is trivial
	// but runs through the same code path as every later one.
	if !ws.factorize() {
		return nil, errors.New("lp: internal: singular initial basis")
	}
	ws.stats.Factorizations++

	sol := &Solution{X: make([]float64, n), Dual: make([]float64, m)}

	// Phase 1: minimise the sum of artificials. The artificial sum can
	// never drop below zero: stop at the feasibility threshold (with its
	// perturbation slack).
	if nart > 0 {
		ws.setPhase(1)
		phase1Stop := feasTol / 2
		if perturb > 0 {
			phase1Stop = feasTol
		}
		iters, status := ws.primal(phase1Stop)
		sol.Iterations += iters
		ws.stats.Iterations += iters
		if status == statusCanceled {
			return nil, fmt.Errorf("%w (phase 1, m=%d n=%d)", ErrCanceled, m, n)
		}
		if status == statusIterLimit {
			return nil, fmt.Errorf("%w (phase 1, m=%d n=%d)", ErrIterationLimit, m, n)
		}
		if status == statusUnbounded {
			return nil, errors.New("lp: internal: phase 1 reported unbounded")
		}
		slack := feasTol
		if perturb > 0 {
			for _, r := range ws.rhs[:m] {
				slack += 2 * perturb * (2 + math.Abs(r))
			}
		}
		if ws.objValue() > slack {
			sol.Status = Infeasible
			return sol, nil
		}
		// Artificials left basic at ~zero are *not* swept out here: the
		// ratio test pins them (see chooseLeaving), so phase 2 evicts
		// lazily — only the rows the optimisation actually touches pay a
		// pivot, instead of one BTRAN + column scan per artificial row.
	}

	// Phase 2: minimise the true objective; artificials are banned.
	ws.setPhase(2)
	iters, status := ws.primal(math.Inf(-1))
	sol.Iterations += iters
	ws.stats.Iterations += iters
	switch status {
	case statusCanceled:
		return nil, fmt.Errorf("%w (phase 2, m=%d n=%d)", ErrCanceled, m, n)
	case statusIterLimit:
		return nil, fmt.Errorf("%w (phase 2, m=%d n=%d)", ErrIterationLimit, m, n)
	case statusUnbounded:
		sol.Status = Unbounded
		return sol, nil
	}
	if !ws.artificialsClean() {
		// A lazily kept artificial regrew past the feasibility tolerance
		// (severe degeneracy interacting with the pinned ratio test):
		// the basis no longer represents the true program, so fail into
		// the perturbed retry instead of extracting a relaxed optimum.
		return nil, fmt.Errorf("%w (artificial regrew, m=%d n=%d)", ErrIterationLimit, m, n)
	}
	ws.extract(mdl, sol)
	sol.Basis = ws.exportBasis()
	return sol, nil
}

// solveWarm attempts the warm-started solve. ok=false means the basis
// could not be used and the caller should run the cold path; a non-nil
// error is a genuine solver failure.
func (ws *Workspace) solveWarm(mdl *Model, basis Basis) (sol *Solution, ok bool, err error) {
	k := len(basis.cols)
	mm := len(mdl.rows)
	// k == 0 with a valid basis is the legitimate optimal basis of a
	// 0-row model (a rowless column-generation master): it round-trips
	// as a warm start, with any appended inequality rows joining on
	// their slacks exactly like rows appended to a non-trivial basis.
	if !basis.valid || k > mm {
		return nil, false, nil
	}
	// Appended rows join the basis on their slack; equality rows have
	// none, so their appearance forces a cold start.
	for i := k; i < mm; i++ {
		if mdl.rows[i].sense == EQ {
			return nil, false, nil
		}
	}

	ws.compile(mdl, 0)
	n, m := ws.n, ws.m
	ws.ensureIterState()

	// Decode and validate the basis under the current column space.
	for i := 0; i < k; i++ {
		code := decodeBasisCol(basis.cols[i], n)
		if enc := basis.cols[i]; enc >= 0 {
			if enc >= n {
				return nil, false, nil
			}
		} else if ws.unitRow(code) >= k {
			return nil, false, nil
		}
		if ws.basisPos[code] >= 0 {
			return nil, false, nil // duplicate basic column
		}
		ws.basis[i] = code
		ws.basisPos[code] = i
		if ws.isArtificial(code) {
			ws.artRow[i] = true
			ws.nart++
		}
	}
	for i := k; i < m; i++ {
		code := n + 2*i // +e_i relaxes <=
		if ws.sense[i] == GE {
			code++ // -e_i relaxes >=
		}
		ws.basis[i] = code
		ws.basisPos[code] = i
	}

	// The sparse factorisation is cheap enough to rebuild on every warm
	// start — there is no dense O(m^3) rebuild to dodge any more, so no
	// row cap and no block-extension special case. A singular basis
	// matrix simply falls back to the cold path.
	if !ws.factorize() {
		return nil, false, nil
	}
	ws.stats.Factorizations++

	ws.recomputeXB()
	primalInfeas := false
	for i := 0; i < m; i++ {
		if ws.xb[i] < -feasTol {
			primalInfeas = true
			break
		}
	}

	ws.stats.Solves++
	ws.rng = newXorshift(uint64(m)*2654435761 + uint64(n+2*m) + 1)
	ws.improveEps = Eps
	ws.setPhase(2)

	if primalInfeas {
		// Dual-simplex cleanup needs dual feasibility; a violated
		// reduced cost alongside primal infeasibility means the basis is
		// stale in both senses.
		ws.computeY()
		if !ws.dualFeasible(1e-6) {
			return nil, false, nil
		}
	}

	sol = &Solution{X: make([]float64, n), Dual: make([]float64, m), WarmStarted: true}
	if primalInfeas {
		iters, dualStatus := ws.dualSimplex()
		sol.Iterations += iters
		sol.DualIterations += iters
		ws.stats.DualIterations += iters
		if dualStatus == statusCanceled {
			return nil, false, fmt.Errorf("%w (warm dual, m=%d n=%d)", ErrCanceled, m, n)
		}
		if dualStatus != statusOptimal {
			return nil, false, nil
		}
	}
	iters, status := ws.primal(math.Inf(-1))
	sol.Iterations += iters
	ws.stats.Iterations += iters
	if status == statusCanceled {
		// Cancellation must propagate, never fall back to a cold solve —
		// a fallback would keep burning time the caller asked back.
		return nil, false, fmt.Errorf("%w (warm, m=%d n=%d)", ErrCanceled, m, n)
	}
	if status == statusIterLimit {
		// A degenerate plateau trapped the warm primal. Report it as
		// ErrIterationLimit so SolveFrom runs the full cold ladder —
		// cold start plus the perturbed retry — rather than giving up
		// where the identical cold call would have succeeded.
		return nil, false, fmt.Errorf("%w (warm, m=%d n=%d)", ErrIterationLimit, m, n)
	}
	if status != statusOptimal || !ws.artificialsClean() {
		// Unbounded or a regrown artificial on the warm path:
		// re-derive the verdict from a trustworthy cold start.
		return nil, false, nil
	}
	ws.extract(mdl, sol)
	sol.Basis = ws.exportBasis()
	return sol, true, nil
}
