package lp

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// cancelTestModel builds a transportation-style LP big enough to run
// the simplex for a nontrivial number of pivots.
func cancelTestModel(srcs, dsts int) *Model {
	rng := rand.New(rand.NewSource(7))
	m := NewModel()
	x := make([][]int, srcs)
	for i := range x {
		x[i] = make([]int, dsts)
		for j := range x[i] {
			x[i][j] = m.AddVar(1+rng.Float64()*9, "")
		}
	}
	for i := 0; i < srcs; i++ {
		terms := make([]Term, dsts)
		for j := 0; j < dsts; j++ {
			terms[j] = Term{x[i][j], 1}
		}
		m.AddRow(LE, 10+rng.Float64()*5, terms...)
	}
	for j := 0; j < dsts; j++ {
		terms := make([]Term, srcs)
		for i := 0; i < srcs; i++ {
			terms[i] = Term{x[i][j], 1}
		}
		m.AddRow(GE, 1+rng.Float64()*3, terms...)
	}
	return m
}

func TestSetStopCancelsSolve(t *testing.T) {
	m := cancelTestModel(20, 30)
	ws := NewWorkspace()
	var stop atomic.Bool
	stop.Store(true)
	ws.SetStop(&stop)
	sol, err := m.SolveWith(ws)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveWith = (%v, %v), want ErrCanceled", sol, err)
	}
}

func TestSetStopCancelsWarmSolve(t *testing.T) {
	m := cancelTestModel(20, 30)
	ws := NewWorkspace()
	sol, err := m.SolveWith(ws)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: (%v, %v)", sol, err)
	}
	// Grow the model so the warm start has real work, then cancel.
	terms := make([]Term, 0, m.NumVars())
	for j := 0; j < m.NumVars(); j++ {
		terms = append(terms, Term{j, 1})
	}
	m.AddRow(GE, 50, terms...)
	var stop atomic.Bool
	stop.Store(true)
	ws.SetStop(&stop)
	_, err = m.SolveFrom(ws, sol.Basis)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveFrom under stop = %v, want ErrCanceled", err)
	}
}

// TestCanceledWorkspaceReusable checks that a canceled solve leaves no
// poisoned state behind: clearing the flag and re-solving on the same
// workspace must match a fresh solve exactly.
func TestCanceledWorkspaceReusable(t *testing.T) {
	m := cancelTestModel(20, 30)
	ws := NewWorkspace()
	var stop atomic.Bool
	stop.Store(true)
	ws.SetStop(&stop)
	if _, err := m.SolveWith(ws); !errors.Is(err, ErrCanceled) {
		t.Fatalf("first solve = %v, want ErrCanceled", err)
	}
	stop.Store(false)
	got, err := m.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Objective != want.Objective {
		t.Fatalf("post-cancel solve (%v, %v) differs from fresh (%v, %v)",
			got.Status, got.Objective, want.Status, want.Objective)
	}
}

// TestStopMidSolve cancels a running solve from another goroutine. The
// exact pivot at which the flag lands is timing-dependent, so the test
// asserts liveness — the solve returns promptly either way — and that
// a canceled outcome is ErrCanceled, never a mangled solution. It
// retries with increasing delays until one attempt completes optimally
// (proving the cancel can land mid-solve rather than only at entry).
func TestStopMidSolve(t *testing.T) {
	m := cancelTestModel(60, 90)
	ws := NewWorkspace()
	sawCanceled := false
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, time.Second} {
		var stop atomic.Bool
		ws.SetStop(&stop)
		timer := time.AfterFunc(delay, func() { stop.Store(true) })
		start := time.Now()
		sol, err := m.SolveWith(ws)
		timer.Stop()
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("delay %v: solve took %v, cancellation not observed", delay, d)
		}
		switch {
		case err == nil:
			if sol.Status != Optimal {
				t.Fatalf("delay %v: uncanceled solve status %v", delay, sol.Status)
			}
			if !sawCanceled {
				t.Log("solve completed before any cancellation landed")
			}
			return
		case errors.Is(err, ErrCanceled):
			sawCanceled = true
		default:
			t.Fatalf("delay %v: unexpected error %v", delay, err)
		}
	}
	t.Fatal("solve never completed even with a 1s cancel delay")
}
