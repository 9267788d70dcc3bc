package lp

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// corpusTol is the relative objective agreement required between the
// sparse production solver and the dense reference on corpus and fuzz
// instances.
const corpusTol = 1e-6

// maxResidual returns the largest constraint violation of x over the
// model's rows and the non-negativity bounds, scaled by row magnitude.
func maxResidual(m *Model, x []float64) float64 {
	worst := 0.0
	for _, v := range x {
		if -v > worst {
			worst = -v
		}
	}
	for i := range m.rows {
		ax := dot(densify(m, i), x)
		rhs := m.rows[i].rhs
		var r float64
		switch m.rows[i].sense {
		case LE:
			r = ax - rhs
		case GE:
			r = rhs - ax
		case EQ:
			r = math.Abs(ax - rhs)
		}
		if r /= 1 + math.Abs(rhs); r > worst {
			worst = r
		}
	}
	return worst
}

// crossValidate solves the model two ways — the sparse production
// solver and the dense reference — and asserts they agree on status
// and objective, and that the sparse solution is feasible and
// satisfies strong duality.
func crossValidate(t *testing.T, name string, f *MPS) {
	t.Helper()
	m := f.Model

	sol, err := m.SolveWith(NewWorkspace())
	if err != nil {
		t.Fatalf("%s: sparse solve: %v", name, err)
	}
	ref, err := SolveDense(m)
	if err != nil {
		t.Fatalf("%s: dense reference: %v", name, err)
	}

	if sol.Status != ref.Status {
		t.Fatalf("%s: status sparse=%v dense=%v", name, sol.Status, ref.Status)
	}
	if ref.Status != Optimal {
		return
	}
	if !testutil.Near(sol.Objective, ref.Objective, corpusTol) {
		t.Fatalf("%s: sparse objective %v, dense reference %v", name, sol.Objective, ref.Objective)
	}
	if r := maxResidual(m, sol.X); r > feasTol {
		t.Errorf("%s: sparse solution violates feasibility by %v", name, r)
	}
	checkStrongDuality(t, m, sol)
}

// TestCorpusCrossValidation runs every committed MPS instance through
// the sparse solver and the dense reference, demanding status and
// objective agreement. This is the acceptance gate of the toolkit: the
// production simplex must agree with an independently-written oracle
// on the whole corpus.
func TestCorpusCrossValidation(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.mps"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, fn := range files {
		fn := fn
		t.Run(filepath.Base(fn), func(t *testing.T) {
			data, err := os.ReadFile(fn)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ParseMPS(data)
			if err != nil {
				t.Fatal(err)
			}
			crossValidate(t, filepath.Base(fn), f)
		})
	}
}

// TestCorpusKnownOptima pins the hand-computed objectives noted in the
// corpus file headers, so both engines agreeing on a wrong value (a
// shared modelling bug in the reader) still fails.
func TestCorpusKnownOptima(t *testing.T) {
	known := map[string]float64{
		"afiro.mps":     -170,
		"dupterms.mps":  3, // 3X >= 9 -> X=3, Y=0, obj = X = 3
		"emptyrows.mps": 4, // 2X >= 8 -> X=4
		"degen.mps":     4,
		"freefmt.mps":   9.5,
	}
	for fn, want := range known {
		data, err := os.ReadFile(filepath.Join("testdata", fn))
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseMPS(data)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		sol, err := f.Model.Solve()
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if sol.Status != Optimal || !testutil.Near(f.Objective(sol), want, 1e-6) {
			t.Errorf("%s: status %v objective %v, want optimal %v", fn, sol.Status, f.Objective(sol), want)
		}
	}
}

// TestCorpusStatuses pins the adversarial instances' verdicts.
func TestCorpusStatuses(t *testing.T) {
	for fn, want := range map[string]Status{
		"unbounded.mps": Unbounded,
		"infeas.mps":    Infeasible,
	} {
		data, err := os.ReadFile(filepath.Join("testdata", fn))
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseMPS(data)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		sol, err := f.Model.Solve()
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if sol.Status != want {
			t.Errorf("%s: status %v, want %v", fn, sol.Status, want)
		}
	}
}

// saneCorpusValue bounds the numeric range fuzzing may explore: the
// 1e-6 agreement contract between two different simplex
// implementations is only meaningful on reasonably-conditioned data.
func saneCorpusValue(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	a := math.Abs(v)
	return a == 0 || (a >= 1e-6 && a <= 1e6)
}

func fuzzableModel(m *Model) bool {
	if m.NumVars() == 0 || m.NumVars() > 48 || m.NumRows() > 48 {
		return false
	}
	for _, c := range m.obj {
		if !saneCorpusValue(c) {
			return false
		}
	}
	nnz := 0
	for _, r := range m.rows {
		if !saneCorpusValue(r.rhs) {
			return false
		}
		for _, tm := range r.terms {
			if !saneCorpusValue(tm.Coef) {
				return false
			}
		}
		nnz += len(r.terms)
	}
	return nnz <= 1024
}

// statusBoundary reports whether the instance sits on a tolerance
// boundary: nudging every right-hand side (or, for unbounded
// disagreements, every objective coefficient) by +-1e-5 flips the
// production solver's verdict. Two independently-written simplexes
// may legitimately disagree on such knife-edge instances, so the fuzz
// oracle skips them instead of failing.
func statusBoundary(m *Model, disagreedOnUnbounded bool) bool {
	verdict := func(mm *Model) Status {
		sol, err := mm.SolveWith(NewWorkspace())
		if err != nil {
			return Status(-1)
		}
		return sol.Status
	}
	var a, b Status
	if disagreedOnUnbounded {
		perturbObj := func(d float64) *Model {
			mm := &Model{obj: append([]float64(nil), m.obj...), rows: m.rows, maximize: m.maximize}
			for j := range mm.obj {
				mm.obj[j] += d * (1 + math.Abs(mm.obj[j]))
			}
			return mm
		}
		a, b = verdict(perturbObj(1e-5)), verdict(perturbObj(-1e-5))
	} else {
		perturbRHS := func(d float64) *Model {
			mm := &Model{obj: m.obj, maximize: m.maximize, rows: append([]row(nil), m.rows...)}
			for i := range mm.rows {
				mm.rows[i].rhs += d * (1 + math.Abs(mm.rows[i].rhs))
			}
			return mm
		}
		a, b = verdict(perturbRHS(1e-5)), verdict(perturbRHS(-1e-5))
	}
	return a != b
}

// FuzzSolveMPS feeds fuzzed MPS text through the reader and, whenever
// it parses into a reasonably-conditioned model, cross-validates the
// production sparse simplex against the dense reference: statuses must
// agree, optimal objectives must match to 1e-6 relative, and the
// sparse solution must be primal feasible with duals satisfying
// y.b = objective.
func FuzzSolveMPS(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.mps"))
	for _, fn := range files {
		if data, err := os.ReadFile(fn); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		mf, err := ParseMPS(data)
		if err != nil {
			return // malformed input is the reader's job to reject, not a solver bug
		}
		m := mf.Model
		if !fuzzableModel(m) {
			return
		}
		sol, err := m.SolveWith(NewWorkspace())
		if err != nil {
			return // iteration-limit on an adversarial instance is not a disagreement
		}
		ref, err := SolveDense(m)
		if err != nil {
			return
		}
		if sol.Status != ref.Status {
			if statusBoundary(m, sol.Status == Unbounded || ref.Status == Unbounded) {
				return
			}
			t.Fatalf("status disagreement: sparse=%v dense=%v\n%s", sol.Status, ref.Status, data)
		}
		if sol.Status != Optimal {
			return
		}
		if !testutil.Near(sol.Objective, ref.Objective, corpusTol) {
			t.Fatalf("objective disagreement: sparse=%v dense=%v\n%s", sol.Objective, ref.Objective, data)
		}
		if r := maxResidual(m, sol.X); r > feasTol {
			t.Fatalf("sparse solution infeasible by %v\n%s", r, data)
		}
		b := make([]float64, len(m.rows))
		for i := range m.rows {
			b[i] = m.rows[i].rhs
		}
		if yb := dot(sol.Dual, b); !testutil.Near(yb, sol.Objective, 1e-5) {
			t.Fatalf("duality gap: y.b=%v objective=%v\n%s", yb, sol.Objective, data)
		}
	})
}
