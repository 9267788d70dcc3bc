// Package lp implements a small linear-programming toolkit: a sparse
// model builder and a sparse revised-simplex solver with reusable
// workspaces and warm starts.
//
// The paper's bounds and heuristics (Multicast-LB, Multicast-UB,
// Broadcast-EB, MulticastMultiSource-UB and the exact tree-packing
// program of Theorem 4) are all linear programs; the original authors
// relied on an external LP solver, which the Go standard library does
// not provide, so this package rebuilds the required machinery from
// scratch. Variables are non-negative; rows may be <=, >= or =;
// objectives may be minimised or maximised. Dual values are exposed,
// which the column-generation solvers in internal/tree and
// internal/steady require.
//
// # Solver engine
//
// The engine is a revised simplex over column-wise sparse storage (see
// DESIGN.md Section 5): the basis is held as a sparse LU factorisation
// with Markowitz-style pivoting plus a product-form eta file, so
// FTRAN/BTRAN are sparse triangular solves, a pivot appends one eta
// column, and the factors are rebuilt only on eta-file overflow or
// detected drift. Entering columns come from a partial-pricing
// candidate list, refilled — like the anti-cycling rules and the dual
// ratio test — by pricing only the columns that the nonzero rows of y
// (or of a row of B⁻¹) touch, through a row-wise copy of the matrix;
// the values and pivots are exactly those of pricing every column. A
// Workspace owns every scratch allocation — the LU factors, the eta
// file, iterate vectors and the compiled column and row stores — and
// is reusable across solves, so hot loops (cutting planes, column
// generation, heuristic search) stop paying allocation and phase-1
// costs on every re-solve:
//
//   - Solve() is the one-shot entry point (fresh workspace, cold start).
//   - SolveWith(ws) reuses a workspace's allocations but still starts
//     cold.
//   - SolveFrom(ws, basis) warm-starts from a previous optimal basis.
//     Rows appended since the basis was captured enter the basis on
//     their slack and any resulting primal infeasibility is repaired by
//     dual-simplex pivots; columns appended since then are priced
//     directly by the primal. A stale or unusable basis silently falls
//     back to a cold solve, so SolveFrom is never less robust than
//     Solve.
package lp

import (
	"errors"
	"fmt"
)

// Eps is the pivot tolerance of the simplex solver.
const Eps = 1e-9

// feasTol is the tolerance used to declare phase-1 success and to report
// residual feasibility.
const feasTol = 1e-7

// Sense is the relational operator of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

type row struct {
	sense Sense
	rhs   float64
	terms []Term
}

// Model is a linear program under construction. All variables are
// implicitly bounded below by zero.
//
// A model may keep growing after a solve: AddRow, AddVar and AddColumn
// extend it in place, and SolveFrom re-solves the extended program from
// the previous optimal basis. AddColumn appends entries to existing
// rows; what must not change between warm-started solves is any
// existing coefficient, right-hand side, row sense or objective
// coefficient.
type Model struct {
	obj        []float64
	names      []string
	rows       []row
	maximize   bool
	noPresolve bool
}

// NewModel returns an empty minimisation model.
func NewModel() *Model { return &Model{} }

// Clone returns a deep copy of the model: growing or solving either
// copy never changes the other, so a solved model can be kept as a
// template whose copies each grow on their own and re-solve warm from
// the template's basis. Clone only reads m, so many goroutines may
// clone one model that nobody grows.
func (m *Model) Clone() *Model {
	c := &Model{
		obj:        append([]float64(nil), m.obj...),
		names:      append([]string(nil), m.names...),
		rows:       make([]row, len(m.rows)),
		maximize:   m.maximize,
		noPresolve: m.noPresolve,
	}
	nnz := 0
	for _, r := range m.rows {
		nnz += len(r.terms)
	}
	// One arena for every row's terms; each row's slice is capped at its
	// length, so a later append to one row reallocates instead of
	// overwriting the next row's terms.
	arena := make([]Term, 0, nnz)
	for i, r := range m.rows {
		at := len(arena)
		arena = append(arena, r.terms...)
		c.rows[i] = row{sense: r.sense, rhs: r.rhs, terms: arena[at:len(arena):len(arena)]}
	}
	return c
}

// Maximize switches the model to maximisation.
func (m *Model) Maximize() { m.maximize = true }

// SetPresolve toggles the presolve reduction pass (presolve.go) that
// cold solves run by default. Turning it off makes SolveWith hand the
// model to the simplex verbatim — useful for debugging, for measuring
// presolve's effect, and as an escape hatch.
func (m *Model) SetPresolve(on bool) { m.noPresolve = !on }

// AddVar adds a non-negative variable with the given objective
// coefficient and returns its index.
func (m *Model) AddVar(objCoef float64, name string) int {
	m.obj = append(m.obj, objCoef)
	m.names = append(m.names, name)
	return len(m.obj) - 1
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows returns the number of constraint rows added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// AddRow adds a constraint and returns its row index. Terms referencing
// the same variable twice are summed.
func (m *Model) AddRow(sense Sense, rhs float64, terms ...Term) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			panic(fmt.Sprintf("lp: term references unknown variable %d", t.Var))
		}
	}
	m.rows = append(m.rows, row{sense: sense, rhs: rhs, terms: append([]Term(nil), terms...)})
	return len(m.rows) - 1
}

// RowCoef is one entry of a column under construction: a coefficient
// in an already-added row.
type RowCoef struct {
	Row  int
	Coef float64
}

// AddColumn adds a non-negative variable together with its
// coefficients in existing rows and returns its index. It is the
// column-generation counterpart of AddRow: a master problem can grow
// one priced-in column at a time and re-solve warm via SolveFrom,
// because appending a column leaves every previous column — and hence
// the previous basis — intact.
func (m *Model) AddColumn(objCoef float64, name string, entries ...RowCoef) int {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= len(m.rows) {
			panic(fmt.Sprintf("lp: column references unknown row %d", e.Row))
		}
	}
	j := m.AddVar(objCoef, name)
	for _, e := range entries {
		m.rows[e.Row].terms = append(m.rows[e.Row].terms, Term{Var: j, Coef: e.Coef})
	}
	return j
}

// Basis identifies the basic variable of every constraint row at the
// end of a solve, in a representation that stays meaningful while the
// model grows (appending rows or variables does not invalidate it).
// It is opaque: obtain one from Solution.Basis and pass it back to
// SolveFrom.
type Basis struct {
	cols  []int // >= 0: structural variable; < 0: unit column ^enc of a row
	valid bool  // set by exportBasis; distinguishes "no info" from a 0-row basis
}

// Empty reports whether the basis carries no information (the zero
// Basis); SolveFrom treats an empty basis as a cold start. A captured
// basis is never empty — not even the legitimate optimal basis of a
// model with zero rows, which has no basic columns at all but still
// round-trips through SolveFrom as a warm start.
func (b Basis) Empty() bool { return !b.valid }

// Rows returns the number of constraint rows the basis covers.
func (b Basis) Rows() int { return len(b.cols) }

// Solution is the result of solving a model.
type Solution struct {
	Status     Status
	Objective  float64   // in the model's own sense (negated back for maximisation)
	X          []float64 // one value per variable
	Dual       []float64 // one value per row; see the Dual convention below
	Iterations int       // simplex pivots performed (primal + dual)
	// DualIterations counts the dual-simplex cleanup pivots of a warm
	// start (included in Iterations).
	DualIterations int
	// WarmStarted reports whether the solve reused the caller's basis
	// rather than falling back to a cold start.
	WarmStarted bool
	// Basis is the optimal basis, reusable by SolveFrom after the model
	// has grown. Only populated for Optimal solutions.
	Basis Basis
}

// Dual convention: for a minimisation model the duals y satisfy
// complementary slackness with reduced costs c_j - y.A_j >= 0 and
// y.b = objective; y_i >= 0 for >= rows, y_i <= 0 for <= rows, free for
// = rows. For a maximisation model the returned duals are those of the
// equivalent negated minimisation, negated back, so that y_i >= 0 for
// <= rows of a max model (the usual convention).

// ErrIterationLimit is returned when the simplex fails to converge
// within its iteration budget (indicative of severe cycling).
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrCanceled is returned when a solve observes its workspace's stop
// flag (Workspace.SetStop) mid-iteration. Unlike ErrIterationLimit it
// never triggers the perturbed retry or a warm-to-cold fallback — a
// canceled solve propagates immediately, and the workspace remains
// reusable for later solves (every solve recompiles and refactorises
// from scratch, so no canceled state survives).
var ErrCanceled = errors.New("lp: solve canceled")

// Solve runs the two-phase revised simplex from a cold start on a
// fresh workspace and returns the solution.
//
// Heavily degenerate programs (the steady-state flow LPs have hundreds
// of zero right-hand sides) can trap the simplex on a degenerate
// plateau; when that happens Solve retries once with a tiny
// deterministic right-hand-side perturbation, the standard lexicographic
// workaround, at the cost of O(1e-8)-relative noise on the result.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveWith(nil)
}

// SolveWith runs a cold two-phase solve reusing the workspace's scratch
// allocations (a nil workspace allocates a private one). The workspace
// must not be shared between goroutines.
//
// Unless the model opts out via SetPresolve(false), the solve first
// runs the presolve reductions (presolve.go); the simplex sees the
// reduced program and postsolve maps its solution — values, duals and
// basis — back to the caller's row and column space. A model presolve
// reduces to nothing, or proves infeasible or unbounded outright, never
// reaches the simplex at all.
func (m *Model) SolveWith(ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if m.noPresolve {
		return ws.solveColdLadder(m)
	}
	switch ws.presolve(m) {
	case psInfeasible:
		return &Solution{Status: Infeasible, X: make([]float64, len(m.obj)), Dual: make([]float64, len(m.rows))}, nil
	case psNoChange:
		return ws.solveColdLadder(m)
	}
	rsol, err := ws.solveColdLadder(&ws.ps.red)
	if err != nil {
		return nil, err
	}
	if ws.ps.unbnd {
		// Presolve found an improving ray along an unconstrained column,
		// a verdict that only stands on a feasible model — infeasibility
		// always wins over unboundedness.
		st := Unbounded
		if rsol.Status == Infeasible {
			st = Infeasible
		}
		return &Solution{Status: st, X: make([]float64, len(m.obj)), Dual: make([]float64, len(m.rows))}, nil
	}
	return ws.postsolve(m, rsol), nil
}

// solveColdLadder is the cold retry ladder shared by SolveWith and
// SolveFrom's fallback: a clean cold solve, then — only if the simplex
// cycled out on a degenerate plateau — one retry with a tiny
// deterministic right-hand-side perturbation.
func (ws *Workspace) solveColdLadder(m *Model) (*Solution, error) {
	sol, err := ws.solveCold(m, 0)
	if errors.Is(err, ErrIterationLimit) {
		sol, err = ws.solveCold(m, 1e-7)
	}
	return sol, err
}

// SolveFrom re-solves the model warm-starting from a basis captured by
// an earlier solve of the same (possibly since grown) model. Appended
// rows must be inequalities; their slacks complete the basis and any
// primal infeasibility they introduce is repaired by dual-simplex
// pivots before the primal finishes the solve. Whenever the basis
// cannot be reused — unknown columns, appended equality rows, a
// singular or dual-infeasible basis, or any numerical trouble on the
// warm path — SolveFrom falls back to the cold path of SolveWith,
// including its perturbed ErrIterationLimit retry: a cycling warm
// start is never allowed to fail where the identical cold call would
// succeed.
func (m *Model) SolveFrom(ws *Workspace, basis Basis) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if !basis.Empty() {
		ws.stats.WarmAttempts++
		sol, ok, err := ws.solveWarm(m, basis)
		if err != nil && !errors.Is(err, ErrIterationLimit) {
			return nil, err
		}
		if ok && err == nil {
			ws.stats.WarmHits++
			return sol, nil
		}
		// A warm path that stalled on a degenerate plateau
		// (ErrIterationLimit) or could not reuse the basis falls through
		// to the full cold ladder below, never straight to the caller.
	}
	return m.SolveWith(ws)
}

// mustSolve is a convenience used in tests and internal callers that
// treat solver failure as fatal.
func (m *Model) mustSolve() *Solution {
	s, err := m.Solve()
	if err != nil {
		panic(err)
	}
	return s
}

// xorshift is a tiny deterministic PRNG so the solver needs no
// dependency on math/rand and stays reproducible.
type xorshift struct{ s uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }
