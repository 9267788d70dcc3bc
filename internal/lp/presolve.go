package lp

// Presolve: a reduction pass that shrinks a model before the simplex
// sees it, plus the postsolve that maps the reduced solution back to
// the original variable and row space (DESIGN.md Section 11).
//
// The steady-state multicast LPs are full of degenerate structure —
// zero right-hand sides, singleton rows acting as bounds, duplicated
// cut rows — and every reduction here removes structure the simplex
// would otherwise spend pivots rediscovering. The implemented rules:
//
//   - per-row duplicate-term coalescing (and dropping of zero
//     coefficients, including duplicates that cancel);
//   - empty rows: trivially satisfiable rows drop, contradictory ones
//     prove infeasibility;
//   - redundant sign rows: a >= row with non-negative coefficients and
//     rhs <= 0 (the zero-RHS GE rows of the steady-state masters) holds
//     for every x >= 0 and drops, as does its <= mirror image;
//   - singleton rows: an = row with one term fixes its variable, a
//     lower-bounding inequality shifts the variable (bound tightening:
//     x >= l becomes x' = x - l >= 0 and the row drops), a near-zero
//     upper bound fixes the variable at zero; genuine positive upper
//     bounds stay as rows, which is how this solver represents them;
//   - duplicate rows: rows with identical coalesced coefficient
//     vectors merge (tighter rhs wins; contradictions prove
//     infeasibility); detection is exact, the form duplicates take
//     when a generator emits the same cut twice;
//   - empty and fixed columns: a variable in no live row fixes at zero
//     (an improving cost sign additionally records a pending unbounded
//     verdict, resolved against feasibility by SolveWith); columns
//     fixed by singleton = rows are substituted out everywhere;
//   - singleton columns: a variable appearing in exactly one row is
//     substituted out of an = row (the row becomes the inequality
//     enforcing the variable's non-negativity), and a zero-cost
//     variable that can absorb any slack of its inequality row removes
//     both the row and itself.
//
// Every reduction pushes a transform onto a stack; postsolve pops the
// stack in reverse, reconstructing the full primal values, a valid
// dual vector (complementary and sign-feasible for the original rows)
// and a basis in original row/column space that SolveFrom can
// warm-start from. All cost-based decisions use the min-normalised
// objective, so maximisation models reduce identically. Snapshots are
// taken at transform time; because postsolve runs last-in-first-out,
// every dual a snapshot references is already reconstructed when the
// snapshot is replayed.

import "math"

// psFeasTol is the tolerance under which presolve declares a
// contradiction infeasible (relative to the magnitudes involved). It
// matches the solver's own feasibility tolerance.
const psFeasTol = feasTol

// psMaxPasses bounds the reduction fixpoint loop; each pass is O(nnz)
// and in practice the fixpoint arrives within two or three.
const psMaxPasses = 8

type psVerdict int

const (
	psReduced    psVerdict = iota // reduced model ready to solve
	psNoChange                    // nothing to do: solve the original
	psInfeasible                  // contradiction found during reduction
)

type psTransKind uint8

const (
	// trFix: column fixed at a value by a singleton = row (row dropped,
	// column basic in it at postsolve) or at zero with no row attached
	// (row < 0: the empty-column rule).
	trFix psTransKind = iota
	// trFixBound: column fixed at zero by a near-zero upper-bound
	// singleton row (row dropped; dual sign-clamped at postsolve).
	trFixBound
	// trShift: column shifted by a lower bound from a singleton row
	// (row dropped; the shifted variable stays in the model).
	trShift
	// trDropRow: row dropped as redundant, duplicate or empty; dual 0,
	// its slack (for = rows, an artificial at zero) basic.
	trDropRow
	// trSubstEQ: singleton column substituted out of an = row; the row
	// stays, transformed into the inequality enforcing x >= 0.
	trSubstEQ
	// trFreeCol: zero-cost singleton column absorbed its inequality
	// row; both dropped.
	trFreeCol
)

// psTransform is one reduction step. Snapshots use original row and
// column indices throughout: rowTerms holds (column, coef) pairs of a
// row, colTerms holds (row, coef) pairs of a column (Term.Var is then
// a row index).
type psTransform struct {
	kind     psTransKind
	col, row int
	a        float64 // coefficient of col in row
	b        float64 // rhs / fix value / shift amount
	cobj     float64 // objective coefficient of col at transform time (model sense)
	sense    Sense   // row sense at transform time
	colTerms []Term  // column snapshot over live rows, excluding row
	rowTerms []Term  // row snapshot over live columns, excluding col
}

// psRow is a working row: coalesced terms (a view into the arena that
// the row edits in place), rhs, live flag.
type psRow struct {
	sense Sense
	rhs   float64
	terms []Term
	live  bool
}

// psState is the per-workspace presolve arena: every slice is reused
// across solves so cold solves stop paying presolve allocations once
// the workspace is warm. terms is an append-only arena; row slices and
// transform snapshots are views into it (snapshots are fresh copies,
// so in-place row edits never corrupt them).
type psState struct {
	rows    []psRow
	terms   []Term
	colCnt  []int32 // live-row reference count per column, maintained incrementally
	colRow  []int32 // a live row containing the column (cached; revalidated on use)
	colGone []bool  // column eliminated (fixed or substituted)
	obj     []float64
	trans   []psTransform
	infeas  bool // duplicate-row merge found a contradiction
	// unbnd records an improving cost ray along an unconstrained
	// column. It is only a *pending* verdict: unboundedness requires a
	// feasible point, and a contradiction may surface in a later pass —
	// or only in phase 1 of the reduced solve — so SolveWith resolves
	// it to Unbounded or Infeasible from the reduced solve's status.
	unbnd bool

	// Reduced-model storage (views into the arena).
	redRows []row
	redObj  []float64
	rowMap  []int32 // original row -> reduced row or -1
	colMap  []int32 // original col -> reduced col or -1
	rowOrig []int32 // reduced row -> original row
	colOrig []int32 // reduced col -> original col
	red     Model

	dupKeys map[uint64][]int32 // duplicate-row hash buckets
}

// presolve reduces the model. On psReduced the reduced model is
// ws.ps.red and postsolve() maps its solution back; the arena stays
// valid until the next presolve on the same workspace.
func (ws *Workspace) presolve(mdl *Model) psVerdict {
	ps := &ws.ps
	n := len(mdl.obj)
	m := len(mdl.rows)

	// Min-normalisation sign for cost-based decisions.
	sgn := 1.0
	if mdl.maximize {
		sgn = -1
	}

	if cap(ps.rows) < m {
		ps.rows = make([]psRow, m)
	}
	ps.rows = ps.rows[:m]
	ps.terms = ps.terms[:0]
	ps.colCnt = growI32(ps.colCnt, n)
	ps.colRow = growI32(ps.colRow, n)
	if cap(ps.colGone) < n {
		ps.colGone = make([]bool, n)
	}
	ps.colGone = ps.colGone[:n]
	ps.obj = growF(ps.obj, n)
	copy(ps.obj, mdl.obj)
	ps.trans = ps.trans[:0]
	ps.infeas = false
	ps.unbnd = false
	for j := 0; j < n; j++ {
		ps.colGone[j] = false
	}

	// Copy rows into the arena, coalescing duplicate terms and dropping
	// zero coefficients (including duplicates that cancel). The
	// stamp/slot scratch is shared with compile(), which always resets
	// it before use.
	ws.stamp = growI32(ws.stamp, n)
	ws.slot = growI32(ws.slot, n)
	stamp, slot := ws.stamp, ws.slot
	for j := range stamp {
		stamp[j] = -1
	}
	for i := 0; i < m; i++ {
		r := &mdl.rows[i]
		start := len(ps.terms)
		for _, t := range r.terms {
			if stamp[t.Var] == int32(i) {
				ps.terms[slot[t.Var]].Coef += t.Coef
				continue
			}
			stamp[t.Var] = int32(i)
			slot[t.Var] = int32(len(ps.terms))
			ps.terms = append(ps.terms, t)
		}
		w := start
		for e := start; e < len(ps.terms); e++ {
			if ps.terms[e].Coef != 0 {
				ps.terms[w] = ps.terms[e]
				w++
			}
		}
		ps.terms = ps.terms[:w]
		ps.rows[i] = psRow{sense: r.sense, rhs: r.rhs, terms: ps.terms[start:w:w], live: true}
	}

	reduced := false
	for pass := 0; pass < psMaxPasses; pass++ {
		// Recount live column references; mutations during the pass
		// maintain the counts incrementally.
		for j := 0; j < n; j++ {
			ps.colCnt[j] = 0
		}
		for i := range ps.rows {
			if !ps.rows[i].live {
				continue
			}
			for _, t := range ps.rows[i].terms {
				ps.colCnt[t.Var]++
				ps.colRow[t.Var] = int32(i)
			}
		}

		changed := false

		// Row rules: empty, redundant-sign, singleton.
		for i := range ps.rows {
			r := &ps.rows[i]
			if !r.live {
				continue
			}
			switch {
			case len(r.terms) == 0:
				if v := ps.emptyRow(i); v != psReduced {
					return v
				}
				changed = true
			case ps.redundantSignRow(i):
				changed = true
			case len(r.terms) == 1:
				v, did := ps.singletonRow(i)
				if v != psReduced {
					return v
				}
				changed = changed || did
			}
		}

		// Duplicate rows.
		if ps.dropDuplicateRows() {
			changed = true
		}
		if ps.infeas {
			return psInfeasible
		}

		// Column rules: empty and singleton columns.
		for j := 0; j < n; j++ {
			if ps.colGone[j] {
				continue
			}
			switch ps.colCnt[j] {
			case 0:
				if sgn*ps.obj[j] < 0 {
					// Improving cost ray along an unconstrained column. Not
					// yet a verdict (see psState.unbnd): fix the column out
					// and keep reducing so infeasibility elsewhere can still
					// win, as it must.
					ps.unbnd = true
				}
				ps.trans = append(ps.trans, psTransform{kind: trFix, col: j, row: -1, cobj: ps.obj[j]})
				ps.colGone[j] = true
				changed = true
			case 1:
				if ps.singletonCol(j) {
					changed = true
				}
			}
		}

		if !changed {
			break
		}
		reduced = true
	}

	if !reduced {
		return psNoChange
	}
	ps.buildReduced(mdl, n, m)
	ws.stats.PresolveRows += m - len(ps.red.rows)
	ws.stats.PresolveCols += n - len(ps.red.obj)
	return psReduced
}

// killRow marks a row dead, decrementing the column counts of its
// terms. Callers append their transform first.
func (ps *psState) killRow(i int) {
	for _, t := range ps.rows[i].terms {
		if ps.colCnt[t.Var] > 0 {
			ps.colCnt[t.Var]--
		}
	}
	ps.rows[i].live = false
}

// emptyRow resolves a live row with no terms: drop it when its
// "0 sense rhs" relation holds, otherwise declare infeasibility.
func (ps *psState) emptyRow(i int) psVerdict {
	r := &ps.rows[i]
	tol := psFeasTol * (1 + math.Abs(r.rhs))
	ok := false
	switch r.sense {
	case LE:
		ok = r.rhs >= -tol
	case GE:
		ok = r.rhs <= tol
	case EQ:
		ok = math.Abs(r.rhs) <= tol
	}
	if !ok {
		return psInfeasible
	}
	ps.dropRow(i)
	return psReduced
}

// redundantSignRow drops rows every x >= 0 satisfies: >= rows with
// non-negative coefficients and rhs <= 0 (the zero-RHS GE rows of the
// steady-state formulations), and their <= mirror images.
func (ps *psState) redundantSignRow(i int) bool {
	r := &ps.rows[i]
	switch r.sense {
	case GE:
		if r.rhs > 0 {
			return false
		}
		for _, t := range r.terms {
			if t.Coef < 0 {
				return false
			}
		}
	case LE:
		if r.rhs < 0 {
			return false
		}
		for _, t := range r.terms {
			if t.Coef > 0 {
				return false
			}
		}
	default:
		return false
	}
	ps.dropRow(i)
	return true
}

// singletonRow resolves a live row with exactly one term: an = row
// fixes its variable, a lower-bounding inequality shifts it (bound
// tightening), a near-zero upper bound fixes it at zero. A genuine
// positive upper bound keeps its row — that is how this solver
// represents upper bounds.
func (ps *psState) singletonRow(i int) (psVerdict, bool) {
	r := &ps.rows[i]
	t := r.terms[0]
	a := t.Coef
	v := r.rhs / a
	lower := (r.sense == GE && a > 0) || (r.sense == LE && a < 0)
	upper := (r.sense == GE && a < 0) || (r.sense == LE && a > 0)
	tol := psFeasTol * (1 + math.Abs(v))
	switch {
	case r.sense == EQ:
		if v < -tol {
			return psInfeasible, false
		}
		if v < 0 {
			v = 0
		}
		ps.fixVar(t.Var, v, i, a)
		return psReduced, true
	case lower:
		if v <= 0 {
			ps.dropRow(i) // x >= non-positive bound: implied by x >= 0
			return psReduced, true
		}
		ps.shiftVar(t.Var, v, i, a, r.sense)
		return psReduced, true
	case upper:
		if v < -tol {
			return psInfeasible, false
		}
		if v <= tol {
			ps.fixBoundZero(t.Var, i, a, r.sense)
			return psReduced, true
		}
	}
	return psReduced, false
}

// fixVar fixes column j at value v via singleton = row i (dropped; j
// becomes basic in it at postsolve) and substitutes it out of every
// other live row.
func (ps *psState) fixVar(j int, v float64, i int, a float64) {
	tr := psTransform{kind: trFix, col: j, row: i, a: a, b: v, cobj: ps.obj[j], sense: ps.rows[i].sense}
	tr.colTerms = ps.snapshotCol(j, i)
	ps.trans = append(ps.trans, tr)
	ps.killRow(i)
	ps.eliminateFixed(j, v)
}

// fixBoundZero fixes column j at zero via a near-zero upper-bound
// singleton row i (dropped; its dual is sign-clamped at postsolve).
func (ps *psState) fixBoundZero(j, i int, a float64, sense Sense) {
	tr := psTransform{kind: trFixBound, col: j, row: i, a: a, cobj: ps.obj[j], sense: sense}
	tr.colTerms = ps.snapshotCol(j, i)
	ps.trans = append(ps.trans, tr)
	ps.killRow(i)
	ps.eliminateFixed(j, 0)
}

// shiftVar applies the lower bound x_j >= l from singleton row i:
// x_j = l + x'_j with x'_j >= 0, folding the shift into every other
// row's rhs and dropping the bound row.
func (ps *psState) shiftVar(j int, l float64, i int, a float64, sense Sense) {
	tr := psTransform{kind: trShift, col: j, row: i, a: a, b: l, cobj: ps.obj[j], sense: sense}
	tr.colTerms = ps.snapshotCol(j, i)
	ps.trans = append(ps.trans, tr)
	ps.killRow(i)
	for k := range ps.rows {
		r := &ps.rows[k]
		if !r.live {
			continue
		}
		for _, t := range r.terms {
			if t.Var == j {
				r.rhs -= t.Coef * l
				break
			}
		}
	}
}

// eliminateFixed removes column j (known value v) from every live row,
// folding its contribution into the right-hand sides.
func (ps *psState) eliminateFixed(j int, v float64) {
	ps.colGone[j] = true
	ps.colCnt[j] = 0
	for k := range ps.rows {
		r := &ps.rows[k]
		if !r.live {
			continue
		}
		for e, t := range r.terms {
			if t.Var != j {
				continue
			}
			r.rhs -= t.Coef * v
			r.terms = append(r.terms[:e], r.terms[e+1:]...)
			break
		}
	}
}

// snapshotCol copies column j's live entries, excluding row skip, into
// the arena as (row, coef) pairs.
func (ps *psState) snapshotCol(j, skip int) []Term {
	start := len(ps.terms)
	for i := range ps.rows {
		if !ps.rows[i].live || i == skip {
			continue
		}
		for _, t := range ps.rows[i].terms {
			if t.Var == j {
				ps.terms = append(ps.terms, Term{Var: i, Coef: t.Coef})
				break
			}
		}
	}
	return ps.terms[start:len(ps.terms):len(ps.terms)]
}

// snapshotRow copies row i's live terms, excluding column skip, into
// the arena.
func (ps *psState) snapshotRow(i, skip int) []Term {
	start := len(ps.terms)
	for _, t := range ps.rows[i].terms {
		if t.Var != skip {
			ps.terms = append(ps.terms, t)
		}
	}
	return ps.terms[start:len(ps.terms):len(ps.terms)]
}

// dropRow drops a redundant/duplicate/empty row: dual 0, slack basic.
func (ps *psState) dropRow(i int) {
	ps.trans = append(ps.trans, psTransform{kind: trDropRow, row: i, col: -1, sense: ps.rows[i].sense})
	ps.killRow(i)
}

// dropDuplicateRows merges rows with identical coalesced coefficient
// vectors. Same-sense duplicates keep the tighter rhs; an = row
// absorbs a consistent inequality twin; contradictions set ps.infeas.
func (ps *psState) dropDuplicateRows() bool {
	if ps.dupKeys == nil {
		ps.dupKeys = make(map[uint64][]int32)
	} else {
		for k := range ps.dupKeys {
			delete(ps.dupKeys, k)
		}
	}
	changed := false
	for i := range ps.rows {
		r := &ps.rows[i]
		if !r.live || len(r.terms) == 0 {
			continue
		}
		key := hashTerms(r.terms)
		bucket := ps.dupKeys[key]
		matched := false
		for e, k32 := range bucket {
			k := int(k32)
			if !ps.rows[k].live || !sameTerms(ps.rows[k].terms, r.terms) {
				continue
			}
			matched = true
			if survivor, dropped := ps.mergeDuplicate(k, i); dropped {
				changed = true
				bucket[e] = int32(survivor)
			}
			break
		}
		if !matched && r.live {
			ps.dupKeys[key] = append(bucket, int32(i))
		}
	}
	return changed
}

// mergeDuplicate resolves twin rows k and i (identical coefficient
// vectors): the tighter row survives, the dominated one drops with
// dual 0 and its slack basic — valid exactly because the survivor's
// constraint keeps the dropped one slack (or degenerately tight). The
// rhs never migrates between rows: moving it would silently swap which
// original row is binding and wreck the dual attribution at postsolve.
// Returns the surviving row index and whether a row was dropped.
func (ps *psState) mergeDuplicate(k, i int) (int, bool) {
	a, b := &ps.rows[k], &ps.rows[i]
	tol := psFeasTol * (1 + math.Abs(a.rhs) + math.Abs(b.rhs))
	switch {
	case a.sense == b.sense:
		switch a.sense {
		case LE:
			if b.rhs < a.rhs {
				ps.dropRow(k)
				return i, true
			}
		case GE:
			if b.rhs > a.rhs {
				ps.dropRow(k)
				return i, true
			}
		case EQ:
			if math.Abs(a.rhs-b.rhs) > tol {
				ps.infeas = true
				return k, false
			}
		}
		ps.dropRow(i)
		return k, true
	case a.sense == EQ || b.sense == EQ:
		eqIdx, ineqIdx := k, i
		if b.sense == EQ {
			eqIdx, ineqIdx = i, k
		}
		eq, ineq := &ps.rows[eqIdx], &ps.rows[ineqIdx]
		ok := false
		switch ineq.sense {
		case LE:
			ok = eq.rhs <= ineq.rhs+tol
		case GE:
			ok = eq.rhs >= ineq.rhs-tol
		}
		if !ok {
			ps.infeas = true
			return k, false
		}
		ps.dropRow(ineqIdx) // the equality implies the inequality
		return eqIdx, true
	default:
		// A <= / >= pair over the same vector brackets a range:
		// infeasible when empty, otherwise both rows stay.
		le, ge := a, b
		if a.sense == GE {
			le, ge = b, a
		}
		if ge.rhs > le.rhs+tol {
			ps.infeas = true
		}
		return k, false
	}
}

// singletonCol resolves a column appearing in exactly one live row:
// substitution out of an = row, or absorbing a zero-cost inequality.
func (ps *psState) singletonCol(j int) bool {
	i := int(ps.colRow[j])
	if i < 0 || i >= len(ps.rows) || !ps.rows[i].live || !rowHasVar(ps.rows[i].terms, j) {
		// Cached row went stale; the count says exactly one live row
		// still references j, so find it.
		i = -1
		for k := range ps.rows {
			if ps.rows[k].live && rowHasVar(ps.rows[k].terms, j) {
				i = k
				break
			}
		}
		if i < 0 {
			return false
		}
		ps.colRow[j] = int32(i)
	}
	r := &ps.rows[i]
	var a float64
	for _, t := range r.terms {
		if t.Var == j {
			a = t.Coef
			break
		}
	}
	switch {
	case r.sense == EQ && len(r.terms) > 1:
		ps.substEQ(j, i, a)
		return true
	case ps.obj[j] == 0 && ((r.sense == GE && a > 0) || (r.sense == LE && a < 0)):
		// Zero-cost absorber: whatever the other variables do, some
		// x_j >= 0 satisfies the row, so both the row and column drop.
		tr := psTransform{kind: trFreeCol, col: j, row: i, a: a, b: r.rhs, sense: r.sense}
		tr.rowTerms = ps.snapshotRow(i, j)
		ps.trans = append(ps.trans, tr)
		ps.killRow(i)
		ps.colGone[j] = true
		ps.colCnt[j] = 0
		return true
	}
	return false
}

func rowHasVar(terms []Term, j int) bool {
	for _, t := range terms {
		if t.Var == j {
			return true
		}
	}
	return false
}

// substEQ substitutes singleton column j out of = row i: the row
// becomes the inequality that keeps x_j non-negative, and the
// objective absorbs x_j's contribution.
func (ps *psState) substEQ(j, i int, a float64) {
	r := &ps.rows[i]
	tr := psTransform{kind: trSubstEQ, col: j, row: i, a: a, b: r.rhs, cobj: ps.obj[j]}
	tr.rowTerms = ps.snapshotRow(i, j)
	ps.trans = append(ps.trans, tr)

	// x_j = (b - rest)/a >= 0 becomes: rest <= b (a > 0) or rest >= b.
	if a > 0 {
		r.sense = LE
	} else {
		r.sense = GE
	}
	for e, t := range r.terms {
		if t.Var == j {
			r.terms = append(r.terms[:e], r.terms[e+1:]...)
			break
		}
	}
	// Objective: c_j x_j = (c_j/a)(b - rest); the constant is
	// irrelevant (postsolve recomputes the objective from the original
	// model), the rest folds into the other costs.
	f := ps.obj[j] / a
	for _, t := range r.terms {
		ps.obj[t.Var] -= f * t.Coef
	}
	ps.colGone[j] = true
	ps.colCnt[j] = 0
}

// buildReduced compacts the live rows and columns into ps.red.
func (ps *psState) buildReduced(mdl *Model, n, m int) {
	ps.rowMap = growI32(ps.rowMap, m)
	ps.colMap = growI32(ps.colMap, n)
	ps.rowOrig = ps.rowOrig[:0]
	ps.colOrig = ps.colOrig[:0]
	ps.redObj = ps.redObj[:0]
	ps.redRows = ps.redRows[:0]
	for j := 0; j < n; j++ {
		if ps.colGone[j] {
			ps.colMap[j] = -1
			continue
		}
		ps.colMap[j] = int32(len(ps.colOrig))
		ps.colOrig = append(ps.colOrig, int32(j))
		ps.redObj = append(ps.redObj, ps.obj[j])
	}
	for i := 0; i < m; i++ {
		if !ps.rows[i].live {
			ps.rowMap[i] = -1
			continue
		}
		ps.rowMap[i] = int32(len(ps.rowOrig))
		ps.rowOrig = append(ps.rowOrig, int32(i))
		start := len(ps.terms)
		for _, t := range ps.rows[i].terms {
			ps.terms = append(ps.terms, Term{Var: int(ps.colMap[t.Var]), Coef: t.Coef})
		}
		ps.redRows = append(ps.redRows, row{
			sense: ps.rows[i].sense,
			rhs:   ps.rows[i].rhs,
			terms: ps.terms[start:len(ps.terms):len(ps.terms)],
		})
	}
	ps.red = Model{obj: ps.redObj, rows: ps.redRows, maximize: mdl.maximize}
}

// postsolve maps the reduced solution back to the original space:
// full X, a valid dual vector, and an original-space basis that
// SolveFrom can warm-start from.
func (ws *Workspace) postsolve(mdl *Model, rsol *Solution) *Solution {
	ps := &ws.ps
	n := len(mdl.obj)
	m := len(mdl.rows)
	sgn := 1.0
	if mdl.maximize {
		sgn = -1
	}

	sol := &Solution{
		Status:         rsol.Status,
		X:              make([]float64, n),
		Dual:           make([]float64, m),
		Iterations:     rsol.Iterations,
		DualIterations: rsol.DualIterations,
		WarmStarted:    rsol.WarmStarted,
	}
	if rsol.Status != Optimal {
		return sol
	}

	// Scatter the reduced solution. Duals are reconstructed in min
	// space (y = sgn * reported) and converted back at the end.
	y := sol.Dual
	basisOf := make([]int, m)
	haveBasis := make([]bool, m)
	structBasic := make([]bool, n)
	for j, v := range rsol.X {
		sol.X[ps.colOrig[j]] = v
	}
	for i, d := range rsol.Dual {
		y[ps.rowOrig[i]] = sgn * d
	}
	rn := len(ps.red.obj)
	for i, enc := range rsol.Basis.cols {
		orig := int(ps.rowOrig[i])
		code := decodeBasisCol(enc, rn)
		if code < rn {
			oc := int(ps.colOrig[code])
			basisOf[orig] = oc
			structBasic[oc] = true
		} else {
			// A basic unit column keeps its own row identity: it is the
			// same-signed unit column of the ORIGINAL row it belongs to,
			// which need not be the row of the basis position holding it
			// (a slack can be basic in a foreign position). Collapsing it
			// onto the position's row would make the transform replays
			// below misread which slacks are basic.
			k := (code - rn) / 2
			basisOf[orig] = ^(2*int(ps.rowOrig[k]) + (code-rn)%2)
		}
		haveBasis[orig] = true
	}

	for t := len(ps.trans) - 1; t >= 0; t-- {
		tr := &ps.trans[t]
		switch tr.kind {
		case trFix:
			sol.X[tr.col] = tr.b
			if tr.row >= 0 {
				// Dual of the dropped = row from the zero reduced cost of
				// its basic column: y_r = (c_j - sum_i y_i a_ij) / a.
				d := sgn * tr.cobj
				for _, ct := range tr.colTerms {
					d -= y[ct.Var] * ct.Coef
				}
				y[tr.row] = d / tr.a
				basisOf[tr.row] = tr.col
				haveBasis[tr.row] = true
				structBasic[tr.col] = true
			}
		case trFixBound:
			sol.X[tr.col] = 0
			// The bound row is tight at zero, so complementarity puts no
			// constraint on its dual; clamp it so the column's reduced
			// cost stays non-negative under a sign-valid multiplier.
			d := sgn * tr.cobj
			for _, ct := range tr.colTerms {
				d -= y[ct.Var] * ct.Coef
			}
			yr := d / tr.a
			if (tr.sense == LE && yr > 0) || (tr.sense == GE && yr < 0) {
				yr = 0
			}
			y[tr.row] = yr
			if yr != 0 {
				basisOf[tr.row] = tr.col
				structBasic[tr.col] = true
			} else {
				basisOf[tr.row] = slackCode(tr.row, tr.sense)
			}
			haveBasis[tr.row] = true
		case trShift:
			sol.X[tr.col] += tr.b
			if structBasic[tr.col] {
				// The shifted variable is basic elsewhere: the bound row
				// is slack, dual 0.
				y[tr.row] = 0
				basisOf[tr.row] = slackCode(tr.row, tr.sense)
			} else {
				// A nonbasic shifted variable sits on its bound: the row
				// is tight, the variable basic in it, the dual comes from
				// its (non-negative) reduced cost in the shifted model.
				d := sgn * tr.cobj
				for _, ct := range tr.colTerms {
					d -= y[ct.Var] * ct.Coef
				}
				y[tr.row] = d / tr.a
				basisOf[tr.row] = tr.col
				structBasic[tr.col] = true
			}
			haveBasis[tr.row] = true
		case trDropRow:
			y[tr.row] = 0
			basisOf[tr.row] = slackCode(tr.row, tr.sense)
			haveBasis[tr.row] = true
		case trSubstEQ:
			rest := tr.b
			for _, rt := range tr.rowTerms {
				rest -= rt.Coef * sol.X[rt.Var]
			}
			v := rest / tr.a
			if v < 0 {
				v = 0
			}
			sol.X[tr.col] = v
			y[tr.row] += sgn * tr.cobj / tr.a
			// The transformed row's slack stood for x_j >= 0: if a unit
			// column of this row is basic, the substituted variable takes
			// its place.
			for i := 0; i < m; i++ {
				if haveBasis[i] && basisOf[i] < 0 && (^basisOf[i])/2 == tr.row {
					basisOf[i] = tr.col
					structBasic[tr.col] = true
					break
				}
			}
		case trFreeCol:
			rest := tr.b
			for _, rt := range tr.rowTerms {
				rest -= rt.Coef * sol.X[rt.Var]
			}
			v := rest / tr.a
			if v < 0 {
				v = 0
			}
			sol.X[tr.col] = v
			y[tr.row] = 0
			if v > 0 {
				basisOf[tr.row] = tr.col
				structBasic[tr.col] = true
			} else {
				basisOf[tr.row] = slackCode(tr.row, tr.sense)
			}
			haveBasis[tr.row] = true
		}
	}

	// Objective from the original model; duals back to the reporting
	// convention.
	obj := 0.0
	for j, c := range mdl.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
	if mdl.maximize {
		for i := range y {
			y[i] = -y[i]
		}
	}

	ok := true
	for i := 0; i < m; i++ {
		if !haveBasis[i] {
			ok = false
			break
		}
	}
	if ok {
		sol.Basis = Basis{cols: basisOf, valid: true}
	}
	return sol
}

// slackCode returns the encoded unit column that relaxes a row of the
// given sense (for = rows, the +e artificial, harmlessly basic at
// zero).
func slackCode(row int, sense Sense) int {
	bit := 0
	if sense == GE {
		bit = 1
	}
	return ^(2*row + bit)
}

// hashTerms hashes a coalesced term slice (FNV-1a over variable
// indices and coefficient bits).
func hashTerms(terms []Term) uint64 {
	h := uint64(1469598103934665603)
	for _, t := range terms {
		h ^= uint64(t.Var)
		h *= 1099511628211
		h ^= math.Float64bits(t.Coef)
		h *= 1099511628211
	}
	return h
}

// sameTerms reports whether two coalesced term slices are identical —
// same variables, same coefficients, same order. Rows coalesce in
// first-seen order, so duplicates emitted by the same generator match;
// permuted duplicates are out of scope.
func sameTerms(a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if a[e] != b[e] {
			return false
		}
	}
	return true
}
