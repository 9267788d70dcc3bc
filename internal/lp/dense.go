// Dense-tableau reference simplex.
//
// SolveDense is the cross-validation oracle for the sparse revised
// simplex: a textbook two-phase full-tableau simplex over a dense
// matrix, pivoting by Bland's rule so it provably terminates with no
// anti-cycling machinery, perturbations or partial pricing. It shares
// no code with the production path — lu.go and revised.go are both
// bypassed — so any bug the two engines share has to have been
// made twice independently. It is O(rows * totalCols) per pivot and
// allocates the full tableau, which is exactly why it is trusted and
// exactly why nothing on a hot path should call it.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// denseEps mirrors the production pivot tolerance so borderline
// pivots resolve the same way in both engines.
const denseEps = 1e-9

// ErrDenseIterationLimit is returned when the dense reference exceeds
// its pivot budget. Bland's rule cannot cycle, so hitting it means the
// problem is far too large for an oracle solver, not a solver bug.
var ErrDenseIterationLimit = errors.New("lp: dense reference solver iteration limit exceeded")

// SolveDense solves the model with the dense reference simplex and
// returns Status, Objective and X (duals are not computed — the
// production solver's duals are validated against y.b and reduced-cost
// feasibility instead). The model is read, never modified, and no
// workspace state is involved.
func SolveDense(m *Model) (*Solution, error) {
	n := len(m.obj)
	rows := len(m.rows)

	// Normalise to min with rhs >= 0 in dense form.
	type drow struct {
		a     []float64
		rhs   float64
		sense Sense
	}
	dr := make([]drow, rows)
	for i, r := range m.rows {
		a := make([]float64, n)
		for _, t := range r.terms {
			a[t.Var] += t.Coef
		}
		rhs, sense := r.rhs, r.sense
		if rhs < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		dr[i] = drow{a: a, rhs: rhs, sense: sense}
	}
	obj := make([]float64, n)
	for j, c := range m.obj {
		if m.maximize {
			obj[j] = -c
		} else {
			obj[j] = c
		}
	}

	// With no rows there is no tableau to pivot: x = 0 is feasible and
	// any negative (min-normalised) cost is an immediate ray.
	if rows == 0 {
		for _, c := range obj {
			if c < -denseEps {
				return &Solution{Status: Unbounded, X: make([]float64, n), Dual: []float64{}}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, n), Dual: []float64{}}, nil
	}

	// Column layout: structural | slack/surplus | artificial.
	// LE rows get a slack (initial basis), GE rows a surplus plus an
	// artificial, EQ rows an artificial.
	total := n
	slackOf := make([]int, rows)
	artOf := make([]int, rows)
	for i := range dr {
		slackOf[i], artOf[i] = -1, -1
		if dr[i].sense != EQ {
			slackOf[i] = total
			total++
		}
	}
	artStart := total
	for i := range dr {
		if dr[i].sense != LE {
			artOf[i] = total
			total++
		}
	}

	// Full tableau: rows x (total+1), last column is the rhs.
	t := make([][]float64, rows)
	basis := make([]int, rows)
	for i := range dr {
		t[i] = make([]float64, total+1)
		copy(t[i], dr[i].a)
		switch {
		case dr[i].sense == LE:
			t[i][slackOf[i]] = 1
			basis[i] = slackOf[i]
		case dr[i].sense == GE:
			t[i][slackOf[i]] = -1
			t[i][artOf[i]] = 1
			basis[i] = artOf[i]
		default: // EQ
			t[i][artOf[i]] = 1
			basis[i] = artOf[i]
		}
		t[i][total] = dr[i].rhs
	}

	// A generous pivot budget: Bland's rule terminates, but an oracle
	// has no business running unbounded wall-clock on fuzz inputs.
	budget := 2000 + 200*(rows+1)*(total+1)

	// Phase 1: minimise the sum of artificials.
	phase1 := make([]float64, total)
	for i := range dr {
		if artOf[i] >= 0 {
			phase1[artOf[i]] = 1
		}
	}
	if _, err := densePivotLoop(t, basis, phase1, &budget, artStart, total); err != nil {
		return nil, err
	}
	artSum := 0.0
	for i, b := range basis {
		if b >= artStart {
			artSum += t[i][total]
		}
	}
	if artSum > feasTol {
		return &Solution{Status: Infeasible, X: make([]float64, n), Dual: make([]float64, rows)}, nil
	}
	// Drive any degenerate basic artificials out (or mark their rows
	// as redundant by pivoting on any nonzero structural entry).
	for i, b := range basis {
		if b < artStart {
			continue
		}
		for j := 0; j < artStart; j++ {
			if math.Abs(t[i][j]) > denseEps {
				densePivot(t, basis, i, j)
				break
			}
		}
		// No eligible pivot: the row is all zeros over the real columns
		// (redundant constraint); the artificial stays basic at zero,
		// which is harmless as long as it never re-enters — phase 2
		// only prices columns below artStart.
	}

	// Phase 2 over the real columns with the true objective.
	unbounded, err := densePivotLoop(t, basis, obj, &budget, artStart, artStart)
	if err != nil {
		return nil, err
	}
	if unbounded {
		return &Solution{Status: Unbounded, X: make([]float64, n), Dual: make([]float64, rows)}, nil
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = t[i][total]
		}
	}
	z := 0.0
	for j := range x {
		z += obj[j] * x[j]
	}
	if m.maximize {
		z = -z
	}
	return &Solution{Status: Optimal, Objective: z, X: x, Dual: make([]float64, rows)}, nil
}

// densePivotLoop runs Bland's-rule pivots until optimality for the
// given cost vector, pricing only columns below priceLimit. It returns
// true if an unbounded improving ray was found. artStart bounds the
// columns a leaving artificial check cares about.
func densePivotLoop(t [][]float64, basis []int, cost []float64, budget *int, artStart, priceLimit int) (bool, error) {
	rows := len(t)
	if rows == 0 {
		return false, nil
	}
	total := len(t[0]) - 1
	y := make([]float64, rows) // basic cost multipliers for reduced costs
	for {
		*budget = *budget - 1
		if *budget < 0 {
			return false, ErrDenseIterationLimit
		}
		// Reduced cost of column j in a full tableau: c_j - sum_i
		// c_basis[i] * t[i][j].
		for i, b := range basis {
			if b < len(cost) {
				y[i] = cost[b]
			} else {
				y[i] = 0
			}
		}
		enter := -1
		for j := 0; j < priceLimit; j++ {
			var cj float64
			if j < len(cost) {
				cj = cost[j]
			}
			red := cj
			for i := range t {
				if y[i] != 0 {
					red -= y[i] * t[i][j]
				}
			}
			if red < -denseEps {
				enter = j // Bland: first improving index
				break
			}
		}
		if enter < 0 {
			return false, nil
		}
		// Ratio test, Bland tie-break on the smallest basis index.
		leave := -1
		best := math.Inf(1)
		for i := range t {
			if t[i][enter] > denseEps {
				r := t[i][total] / t[i][enter]
				if r < best-denseEps || (r < best+denseEps && (leave < 0 || basis[i] < basis[leave])) {
					best, leave = r, i
				}
			}
		}
		if leave < 0 {
			return true, nil // improving ray, no blocking row
		}
		densePivot(t, basis, leave, enter)
	}
}

// densePivot performs a full Gauss-Jordan pivot on t[leave][enter].
func densePivot(t [][]float64, basis []int, leave, enter int) {
	piv := t[leave][enter]
	if piv == 0 {
		panic(fmt.Sprintf("lp: dense pivot on zero at row %d col %d", leave, enter))
	}
	row := t[leave]
	inv := 1 / piv
	for j := range row {
		row[j] *= inv
	}
	row[enter] = 1 // exact
	for i := range t {
		if i == leave {
			continue
		}
		f := t[i][enter]
		if f == 0 {
			continue
		}
		ti := t[i]
		for j := range ti {
			ti[j] -= f * row[j]
		}
		ti[enter] = 0 // exact
	}
	basis[leave] = enter
}
