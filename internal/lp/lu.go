package lp

// Sparse LU factorisation of the simplex basis, plus the product-form
// eta file that represents the pivots performed since the last
// (re)factorisation.
//
// The basis matrix B gathers one sparse column per basis slot:
// structural columns from the compiled CSC store, logical columns as
// implicit ±e_i. Factorisation is left-looking (Gilbert–Peierls): each
// column is solved against the L computed so far through a sparse
// triangular solve that visits the reached elimination steps in
// ascending order, and the pivot row is chosen Markowitz-style —
// among the rows within luPivTol of the column's largest eligible
// magnitude, the row with the fewest nonzeros in B wins (a static
// fill-in estimate), ties broken by row index so factorisation is
// deterministic. Columns are eliminated sparsest-first for the same
// reason.
//
// Subsequent pivots do not touch L or U: each one appends an eta column
// (the FTRAN image of the entering column and its pivot slot) to the
// eta file, and FTRAN/BTRAN run through L, U and the etas. When the eta
// file grows past needRefactor's length/fill thresholds — or when the
// iteration loop detects drift of the incrementally updated basic
// values — the basis is refactorised from scratch and the eta file
// cleared.
//
// The per-iteration solves are hypersparse (Hall & McKinnon): they cost
// the entries they touch, not m. On the Figure 11 programs (m ≈ 1,500
// rows on average, up to 4,600) a BTRAN starts from about one nonzero
// basic cost and touches about 7 eta slots and 28 elimination steps; an
// FTRAN touches about 85 steps and ends with about 370 nonzeros, most
// of them fill from the eta file. Apart from clearing their output
// vector (one memclr), ftran and btran do not walk all m steps or every
// eta entry:
//
//   - btran's reverse eta sweep keeps z's nonzero slots in an ascending
//     list and forms each eta's dot product from them — by binary
//     search in the eta's ascending slot list, or by scanning an eta
//     that is short next to the list.
//   - The L and U passes (and their transposes in btran) mark the steps
//     they reach in a pending-step bitset and take them back out in
//     ascending or descending order — the order the dense loops walk.
//     A pass only ever reaches steps beyond the one it is processing,
//     so popping the lowest (or highest) pending step is exact.
//   - ftran marks the slots of w it writes and reads the marks back
//     word by word, which yields w's nonzero slots in ascending order
//     for the ratio test, the basic-value update and appendEta. Once
//     the eta file has touched m entries, a scan of w is cheaper than
//     more marks, and ftran scans instead.
//   - btran's Lᵀ pass finishes a row of y when it takes that row's
//     step, so it marks the rows that end nonzero and returns the
//     marks, read back word by word, as y's ascending nonzero rows:
//     the rows that row-wise pricing walks (priceRows in revised.go).
//
// Exactness: every nonzero is computed by the same floating-point
// operations in the same order as the dense loops, because the skipped
// work only ever adds or subtracts exact zeros. Only the sign of an
// exact zero may differ: a dense loop stores -0 for 0/uDiag with
// uDiag < 0, where the sparse solve skips the step and leaves +0.
// Marks, pending steps and lists use the factorisation scratch, idle
// between factorisations. The dense lowerSolve/upperSolve pair remains
// for recomputeXB, whose right-hand side b is dense.

import (
	"math"
	"math/bits"
	"slices"
)

const (
	// luPivTol is the threshold-pivoting tolerance: rows within this
	// factor of the column's largest eligible magnitude are candidates,
	// and the sparsest wins.
	luPivTol = 0.1
	// luSingTol is the pivot magnitude below which the basis matrix is
	// declared singular.
	luSingTol = 1e-11
	// etaScanRatio picks how btran forms an eta's dot product: an eta
	// with at most this many slots per nonzero of z is scanned whole,
	// a longer one is probed by binary search for each nonzero. The
	// scan bounds the cost when z is dense, as in a phase 1 with many
	// basic artificials.
	etaScanRatio = 8
)

// luFactor holds P·B·Q = L·U in sparse column form plus the eta file.
// Row indices of L and U entries are *original* constraint rows; the
// permutations live in rowOf/slotOf (elimination step -> pivot row /
// eliminated basis slot). All storage is appended in place and reused
// across factorisations.
type luFactor struct {
	m int

	// L: unit lower triangular in elimination order; column j holds the
	// multipliers of step j (rows pivoted later, original indices).
	lPtr []int32
	lRow []int32
	lVal []float64

	// U: column k holds the entries of the column eliminated at step k
	// on rows pivoted at earlier steps; the diagonal is separate.
	uPtr  []int32
	uRow  []int32
	uVal  []float64
	uDiag []float64

	rowOf  []int32 // elimination step -> original pivot row
	rowInv []int32 // original row -> elimination step (-1 during factorisation)
	slotOf []int32 // elimination step -> basis slot eliminated
	stepOf []int32 // basis slot -> elimination step

	// Row-wise transposes of L and U, rebuilt after each factorisation.
	// They exist so that BTRAN can run in scatter form with zero
	// skipping — the dot-product (column) form pays O(nnz) even for the
	// near-unit inputs of loadRho and computeY, which dominate the
	// solver's BTRAN traffic. Targets are pre-permuted: utCol holds the
	// slot to update, ltRow the original row.
	utPtr []int32 // per elimination step: U entries in that step's row
	utCol []int32
	utVal []float64
	ltPtr []int32 // per elimination step: L entries in that step's row
	ltRow []int32
	ltVal []float64

	// Eta file: one entry run per pivot since the factorisation, in
	// basis-slot space. etaPtr[e]..etaPtr[e+1] are the off-pivot
	// nonzeros of eta e, in ascending slot order.
	etaPtr    []int32
	etaPiv    []int32
	etaPivVal []float64
	etaRow    []int32
	etaVal    []float64

	luNNZ int // nnz(L) + nnz(U) + m at the last factorisation

	// Factorisation scratch. Between factorisations ftran and btran
	// reuse it along with the pending-step set; each leaves x zero,
	// mark clear and no step pending.
	x      []float64
	mark   []uint64 // bitset over rows (factorisation) or slots (ftran, btran)
	nzList []int32
	rowCnt []int32
	bucket []int32

	// Pending elimination steps of a sparse triangular solve: a bitset
	// over steps, its population and the lowest and highest words that
	// may hold a bit. popMin and popMax hand the steps out in the order
	// the dense loops visit them.
	pend     []uint64
	npend    int
	plo, phi int
}

func (f *luFactor) etas() int   { return len(f.etaPiv) }
func (f *luFactor) etaLen() int { return len(f.etaRow) }

func (f *luFactor) clearEtas() {
	f.etaPtr = f.etaPtr[:1]
	f.etaPiv = f.etaPiv[:0]
	f.etaPivVal = f.etaPivVal[:0]
	f.etaRow = f.etaRow[:0]
	f.etaVal = f.etaVal[:0]
}

// needRefactor reports whether the eta file has outgrown the factors:
// either too many etas (solve cost grows linearly with the file) or too
// much fill relative to the factorisation itself.
func (f *luFactor) needRefactor() bool {
	ne := f.etas()
	if ne == 0 {
		return false
	}
	limit := f.m
	if limit > 128 {
		limit = 128
	}
	if limit < 8 {
		limit = 8
	}
	if ne >= limit {
		return true
	}
	return f.etaLen() >= 4*(f.luNNZ+f.m)+1024
}

// factorize rebuilds L and U from the workspace's current basis and
// clears the eta file. It returns false when the basis matrix is
// numerically singular (the caller falls back to a cold start or the
// perturbed rescue path).
func (ws *Workspace) factorize() bool {
	m := ws.m
	f := &ws.lu
	f.m = m

	f.lPtr = growI32(f.lPtr, m+1)[:1]
	f.lPtr[0] = 0
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uPtr = growI32(f.uPtr, m+1)[:1]
	f.uPtr[0] = 0
	f.uRow = f.uRow[:0]
	f.uVal = f.uVal[:0]
	f.uDiag = growF(f.uDiag, m)
	f.rowOf = growI32(f.rowOf, m)
	f.rowInv = growI32(f.rowInv, m)
	f.slotOf = growI32(f.slotOf, m)
	f.stepOf = growI32(f.stepOf, m)
	if len(f.etaPtr) == 0 {
		f.etaPtr = append(f.etaPtr, 0)
	}
	f.clearEtas()

	f.x = growF(f.x, m)
	nw := (m + 63) / 64
	if cap(f.mark) < nw {
		f.mark = make([]uint64, nw)
		f.pend = make([]uint64, nw)
	}
	f.mark = f.mark[:nw]
	f.pend = f.pend[:nw]
	clear(f.mark)
	clear(f.pend)
	f.npend, f.plo, f.phi = 0, nw, -1
	f.nzList = growI32(f.nzList, m)[:0]
	f.rowCnt = growI32(f.rowCnt, m)
	f.bucket = growI32(f.bucket, m+2)

	for i := 0; i < m; i++ {
		f.x[i] = 0
		f.rowInv[i] = -1
		f.rowCnt[i] = 0
	}

	// Static Markowitz surrogate: nonzero count per row of B.
	colNNZ := func(slot int) int32 {
		code := ws.basis[slot]
		if code >= ws.n {
			return 1
		}
		return ws.colPtr[code+1] - ws.colPtr[code]
	}
	for slot := 0; slot < m; slot++ {
		code := ws.basis[slot]
		if code >= ws.n {
			f.rowCnt[ws.unitRow(code)]++
			continue
		}
		for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
			f.rowCnt[ws.colRow[e]]++
		}
	}

	// Column order, written straight into slotOf: sparsest column first
	// (counting sort, stable in slot order so factorisation is
	// deterministic).
	for i := range f.bucket[:m+2] {
		f.bucket[i] = 0
	}
	for slot := 0; slot < m; slot++ {
		nz := colNNZ(slot)
		if nz > int32(m) {
			nz = int32(m)
		}
		f.bucket[nz+1]++
	}
	for i := 1; i < m+2; i++ {
		f.bucket[i] += f.bucket[i-1]
	}
	for slot := 0; slot < m; slot++ {
		nz := colNNZ(slot)
		if nz > int32(m) {
			nz = int32(m)
		}
		f.slotOf[f.bucket[nz]] = int32(slot)
		f.bucket[nz]++
	}

	for k := 0; k < m; k++ {
		slot := int(f.slotOf[k])
		f.stepOf[slot] = int32(k)
		// Scatter the basis column of this slot into the sparse
		// accumulator, seeding the elimination heap with the already
		// pivoted rows it touches.
		code := ws.basis[slot]
		if code >= ws.n {
			i := ws.unitRow(code)
			f.x[i] = ws.unitSign(code)
			setBit(f.mark, int32(i))
			f.nzList = append(f.nzList, int32(i))
			if j := f.rowInv[i]; j >= 0 {
				f.push(j)
			}
		} else {
			for e := ws.colPtr[code]; e < ws.colPtr[code+1]; e++ {
				i := ws.colRow[e]
				f.x[i] = ws.colVal[e]
				setBit(f.mark, i)
				f.nzList = append(f.nzList, i)
				if j := f.rowInv[i]; j >= 0 {
					f.push(j)
				}
			}
		}
		// Sparse lower-triangular solve: eliminate through the existing
		// L columns in ascending step order (a valid topological order,
		// since L column j only touches rows pivoted after j).
		for f.npend > 0 {
			j := f.popMin()
			v := f.x[f.rowOf[j]]
			if v != 0 {
				f.uRow = append(f.uRow, f.rowOf[j])
				f.uVal = append(f.uVal, v)
				for e := f.lPtr[j]; e < f.lPtr[j+1]; e++ {
					i := f.lRow[e]
					if !hasBit(f.mark, i) {
						setBit(f.mark, i)
						f.nzList = append(f.nzList, i)
						if jj := f.rowInv[i]; jj >= 0 {
							f.push(jj)
						}
					}
					f.x[i] -= f.lVal[e] * v
				}
			}
		}
		// Markowitz-style pivot choice among the eligible rows.
		amax := 0.0
		for _, i32 := range f.nzList {
			if f.rowInv[i32] >= 0 {
				continue
			}
			if a := math.Abs(f.x[i32]); a > amax {
				amax = a
			}
		}
		if amax < luSingTol {
			f.resetColumn()
			return false
		}
		piv, pivCnt := int32(-1), int32(0)
		for _, i32 := range f.nzList {
			if f.rowInv[i32] >= 0 {
				continue
			}
			if math.Abs(f.x[i32]) < luPivTol*amax {
				continue
			}
			if piv < 0 || f.rowCnt[i32] < pivCnt || (f.rowCnt[i32] == pivCnt && i32 < piv) {
				piv, pivCnt = i32, f.rowCnt[i32]
			}
		}
		pv := f.x[piv]
		f.uDiag[k] = pv
		f.rowOf[k] = piv
		f.rowInv[piv] = int32(k)
		for _, i32 := range f.nzList {
			if i32 == piv || f.rowInv[i32] >= 0 {
				continue
			}
			if f.x[i32] != 0 {
				f.lRow = append(f.lRow, i32)
				f.lVal = append(f.lVal, f.x[i32]/pv)
			}
		}
		f.lPtr = append(f.lPtr, int32(len(f.lRow)))
		f.uPtr = append(f.uPtr, int32(len(f.uRow)))
		f.resetColumn()
	}
	f.luNNZ = len(f.lRow) + len(f.uRow) + m
	f.buildTransposes()
	return true
}

// buildTransposes fills the row-wise copies of U and L that btran's
// scatter solves walk (counting sort per pivot row, O(nnz)).
func (f *luFactor) buildTransposes() {
	m := f.m
	f.utPtr = growI32(f.utPtr, m+1)
	f.ltPtr = growI32(f.ltPtr, m+1)
	f.utCol = growI32(f.utCol, len(f.uRow))
	f.utVal = growF(f.utVal, len(f.uVal))
	f.ltRow = growI32(f.ltRow, len(f.lRow))
	f.ltVal = growF(f.ltVal, len(f.lVal))
	for i := 0; i <= m; i++ {
		f.utPtr[i] = 0
		f.ltPtr[i] = 0
	}
	// U column k holds entries on rows pivoted at earlier steps; bucket
	// them by that step. The scatter target of an entry is the slot of
	// the column it came from.
	for k := 0; k < m; k++ {
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			f.utPtr[f.rowInv[f.uRow[e]]+1]++
		}
	}
	for i := 0; i < m; i++ {
		f.utPtr[i+1] += f.utPtr[i]
	}
	fill := f.bucket[:m]
	for i := 0; i < m; i++ {
		fill[i] = f.utPtr[i]
	}
	for k := 0; k < m; k++ {
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			j := f.rowInv[f.uRow[e]]
			f.utCol[fill[j]] = f.slotOf[k]
			f.utVal[fill[j]] = f.uVal[e]
			fill[j]++
		}
	}
	// L column j holds entries on rows pivoted at later steps; bucket by
	// that step. The scatter target is the pivot row of the column.
	for j := 0; j < m; j++ {
		for e := f.lPtr[j]; e < f.lPtr[j+1]; e++ {
			f.ltPtr[f.rowInv[f.lRow[e]]+1]++
		}
	}
	for i := 0; i < m; i++ {
		f.ltPtr[i+1] += f.ltPtr[i]
	}
	for i := 0; i < m; i++ {
		fill[i] = f.ltPtr[i]
	}
	for j := 0; j < m; j++ {
		for e := f.lPtr[j]; e < f.lPtr[j+1]; e++ {
			k := f.rowInv[f.lRow[e]]
			f.ltRow[fill[k]] = f.rowOf[j]
			f.ltVal[fill[k]] = f.lVal[e]
			fill[k]++
		}
	}
}

// resetColumn clears the sparse accumulator between eliminated columns.
func (f *luFactor) resetColumn() {
	for _, i := range f.nzList {
		f.x[i] = 0
		clearBit(f.mark, i)
	}
	f.nzList = f.nzList[:0]
}

func setBit(b []uint64, i int32)      { b[i>>6] |= 1 << uint(i&63) }
func clearBit(b []uint64, i int32)    { b[i>>6] &^= 1 << uint(i&63) }
func hasBit(b []uint64, i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// push marks elimination step j pending (once).
func (f *luFactor) push(j int32) {
	w, bit := int(j>>6), uint64(1)<<uint(j&63)
	if f.pend[w]&bit != 0 {
		return
	}
	f.pend[w] |= bit
	f.npend++
	f.plo = min(f.plo, w)
	f.phi = max(f.phi, w)
}

// popMin removes and returns the lowest pending step. An ascending
// solve only pushes steps above the one it is processing, so it sees
// every step it reaches in increasing order.
func (f *luFactor) popMin() int32 {
	for f.pend[f.plo] == 0 {
		f.plo++
	}
	w := f.pend[f.plo]
	b := bits.TrailingZeros64(w)
	f.pend[f.plo] = w &^ (1 << uint(b))
	j := int32(f.plo<<6 + b)
	f.popped()
	return j
}

// popMax removes and returns the highest pending step; the descending
// counterpart of popMin.
func (f *luFactor) popMax() int32 {
	for f.pend[f.phi] == 0 {
		f.phi--
	}
	w := f.pend[f.phi]
	b := 63 - bits.LeadingZeros64(w)
	f.pend[f.phi] = w &^ (1 << uint(b))
	j := int32(f.phi<<6 + b)
	f.popped()
	return j
}

func (f *luFactor) popped() {
	if f.npend--; f.npend == 0 {
		f.plo, f.phi = len(f.pend), -1
	}
}

// lowerSolve solves L·z = a in place; a is a dense vector in original
// row space. With upperSolve it is the dense solve of recomputeXB.
func (f *luFactor) lowerSolve(a []float64) {
	for j := 0; j < f.m; j++ {
		v := a[f.rowOf[j]]
		if v == 0 {
			continue
		}
		for e := f.lPtr[j]; e < f.lPtr[j+1]; e++ {
			a[f.lRow[e]] -= f.lVal[e] * v
		}
	}
}

// upperSolve solves U·w = z, reading the row-space vector a left by
// lowerSolve (destroyed) and writing the slot-space result into out
// (every slot is overwritten).
func (f *luFactor) upperSolve(a, out []float64) {
	for k := f.m - 1; k >= 0; k-- {
		v := a[f.rowOf[k]] / f.uDiag[k]
		out[f.slotOf[k]] = v
		if v == 0 {
			continue
		}
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			a[f.uRow[e]] -= f.uVal[e] * v
		}
	}
}

// ftranLoad sets entry i of ftran's row-space right-hand side. Load
// every nonzero of the column, then call ftran.
func (f *luFactor) ftranLoad(i int32, v float64) {
	f.x[i] = v
	f.push(f.rowInv[i])
}

// ftran solves B·w = a for the right-hand side loaded by ftranLoad and
// returns w's nonzero slots in ascending order (the list lives in
// nzList, valid until the next btran or factorisation). w is cleared
// first. The L pass takes the touched elimination steps in ascending
// order and the U pass in descending order, as the dense loops visit
// them; the eta file is then applied in pivot order.
func (f *luFactor) ftran(w []float64) []int32 {
	clear(w)
	steps := f.nzList[:0]
	for f.npend > 0 {
		j := f.popMin()
		steps = append(steps, j)
		v := f.x[f.rowOf[j]]
		if v == 0 {
			continue
		}
		for e := f.lPtr[j]; e < f.lPtr[j+1]; e++ {
			i := f.lRow[e]
			f.x[i] -= f.lVal[e] * v
			f.push(f.rowInv[i])
		}
	}
	for _, j := range steps {
		f.push(j)
	}
	for f.npend > 0 {
		k := f.popMax()
		row := f.rowOf[k]
		v := f.x[row] / f.uDiag[k]
		f.x[row] = 0
		if v == 0 {
			continue
		}
		s := f.slotOf[k]
		w[s] = v
		setBit(f.mark, s)
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			i := f.uRow[e]
			f.x[i] -= f.uVal[e] * v
			f.push(f.rowInv[i])
		}
	}
	// Eta file in pivot order: for eta (r, w'), w_r /= w'_r and
	// w_i -= w'_i·w_r. Marking stops once the etas have touched m
	// entries: from there a scan of w costs less than the marks.
	budget := f.m
	for e, r := range f.etaPiv {
		p := w[r]
		if p == 0 {
			continue
		}
		p /= f.etaPivVal[e]
		w[r] = p
		lo, hi := f.etaPtr[e], f.etaPtr[e+1]
		if budget -= int(hi - lo); budget < 0 {
			for t := lo; t < hi; t++ {
				w[f.etaRow[t]] -= f.etaVal[t] * p
			}
			continue
		}
		for t := lo; t < hi; t++ {
			i := f.etaRow[t]
			w[i] -= f.etaVal[t] * p
			setBit(f.mark, i)
		}
	}
	nz := steps[:0]
	if budget < 0 {
		clear(f.mark)
		for i, v := range w {
			if v != 0 {
				nz = append(nz, int32(i))
			}
		}
		f.nzList = nz
		return nz
	}
	// The marked slots, read word by word, are the ascending list.
	for wi, word := range f.mark {
		if word == 0 {
			continue
		}
		f.mark[wi] = 0
		for ; word != 0; word &= word - 1 {
			s := int32(wi<<6 + bits.TrailingZeros64(word))
			if w[s] != 0 {
				nz = append(nz, s)
			}
		}
	}
	f.nzList = nz
	return nz
}

// btran solves y·B = c. The caller loads c into the slot-space vector
// z, which is zero elsewhere, and lists the loaded slots in ascending
// order in nzList; btran consumes the list and leaves z all zero. y is
// cleared and receives the row-space result, and y's nonzero rows are
// returned in ascending order, in nz's storage.
//
// The eta file is applied in reverse. An eta's dot product sums
// z_i·eta_i over its ascending slots: the whole eta when it is short
// next to z's list, else only the slots of the list, found by binary
// search. Either way it adds the same nonzero terms in the same order
// as the full sum. The transposed U solve then takes the reached
// elimination steps in ascending order and the transposed L solve in
// descending order, scattering through the row-wise copies. A row's
// value is final when the Lᵀ pass takes its step, so the pass marks the
// nonzero ones and the marks, read word by word, are the list.
func (f *luFactor) btran(z, y []float64, nz []int32) []int32 {
	clear(y)
	list := f.nzList // ascending; mark holds its slots
	for _, s := range list {
		setBit(f.mark, s)
	}
	for e := len(f.etaPiv) - 1; e >= 0; e-- {
		lo, hi := f.etaPtr[e], f.etaPtr[e+1]
		rows, vals := f.etaRow[lo:hi], f.etaVal[lo:hi]
		acc := 0.0
		if len(rows) <= etaScanRatio*len(list) {
			for t, i := range rows {
				acc += z[i] * vals[t]
			}
		} else {
			t := 0
			for _, s := range list {
				k, found := slices.BinarySearch(rows[t:], s)
				t += k
				if t == len(rows) {
					break
				}
				if found {
					acc += z[s] * vals[t]
					t++
				}
			}
		}
		r := f.etaPiv[e]
		if !hasBit(f.mark, r) {
			if acc == 0 {
				continue // z_r stays zero
			}
			setBit(f.mark, r)
			at, _ := slices.BinarySearch(list, r)
			list = slices.Insert(list, at, r)
		}
		z[r] = (z[r] - acc) / f.etaPivVal[e]
	}
	for _, s := range list {
		clearBit(f.mark, s)
		f.push(f.stepOf[s])
	}
	// Transposed U, ascending steps. The steps that leave a nonzero in y
	// seed the transposed L pass.
	ysteps := list[:0]
	for f.npend > 0 {
		k := f.popMin()
		s := f.slotOf[k]
		v := z[s] / f.uDiag[k]
		z[s] = 0
		if v == 0 {
			continue
		}
		y[f.rowOf[k]] = v
		ysteps = append(ysteps, k)
		for e := f.utPtr[k]; e < f.utPtr[k+1]; e++ {
			c := f.utCol[e]
			z[c] -= f.utVal[e] * v
			f.push(f.stepOf[c])
		}
	}
	// Transposed L, descending steps.
	for _, j := range ysteps {
		f.push(j)
	}
	for f.npend > 0 {
		j := f.popMax()
		v := y[f.rowOf[j]]
		if v == 0 {
			continue
		}
		setBit(f.mark, f.rowOf[j])
		for e := f.ltPtr[j]; e < f.ltPtr[j+1]; e++ {
			i := f.ltRow[e]
			y[i] -= f.ltVal[e] * v
			f.push(f.rowInv[i])
		}
	}
	nz = nz[:0]
	for wi, word := range f.mark {
		if word == 0 {
			continue
		}
		f.mark[wi] = 0
		for ; word != 0; word &= word - 1 {
			nz = append(nz, int32(wi<<6+bits.TrailingZeros64(word)))
		}
	}
	return nz
}

// appendEta records one pivot: the FTRAN image w of the entering column,
// with nz its ascending nonzero slots as ftran returned them, and the
// leaving slot.
func (f *luFactor) appendEta(w []float64, nz []int32, leave int) {
	for _, i := range nz {
		if int(i) != leave {
			f.etaRow = append(f.etaRow, i)
			f.etaVal = append(f.etaVal, w[i])
		}
	}
	f.etaPiv = append(f.etaPiv, int32(leave))
	f.etaPivVal = append(f.etaPivVal, w[leave])
	f.etaPtr = append(f.etaPtr, int32(len(f.etaRow)))
}
