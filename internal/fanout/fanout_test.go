package fanout

import (
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// run drives Ordered with a body that counts claims per index and the
// distinct worker indices, and returns the emitted sequence.
func run(t *testing.T, n, workers int) (claims []int, workerIDs []int, emitted []int) {
	t.Helper()
	counts := make([]atomic.Int64, n)
	var mu sync.Mutex
	Ordered(n, workers, func(w int, claim iter.Seq[int]) {
		mu.Lock()
		workerIDs = append(workerIDs, w)
		mu.Unlock()
		for i := range claim {
			counts[i].Add(1)
		}
	}, func(i int) { emitted = append(emitted, i) })
	claims = make([]int, n)
	for i := range counts {
		claims[i] = int(counts[i].Load())
	}
	slices.Sort(workerIDs)
	return claims, workerIDs, emitted
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestOrderedClaimsEveryIndexOnce(t *testing.T) {
	const n = 200
	claims, ids, emitted := run(t, n, 4)
	for i, c := range claims {
		if c != 1 {
			t.Errorf("index %d claimed %d times", i, c)
		}
	}
	if !slices.Equal(ids, seq(4)) {
		t.Errorf("worker indices %v, want %v", ids, seq(4))
	}
	if !slices.Equal(emitted, seq(n)) {
		t.Errorf("emitted %v, want 0..%d in order", emitted, n-1)
	}
}

// TestOrderedEmitWaitsForSlowFirstIndex holds index 0 until every other
// index has finished: emit must still see 0..n-1 in order, and nothing
// before index 0 is done.
func TestOrderedEmitWaitsForSlowFirstIndex(t *testing.T) {
	const n = 16
	var others atomic.Int64
	othersDone := make(chan struct{})
	var zeroDone atomic.Bool
	var emitted []int
	Ordered(n, 3, func(_ int, claim iter.Seq[int]) {
		for i := range claim {
			if i == 0 {
				<-othersDone
				zeroDone.Store(true)
				continue
			}
			if others.Add(1) == n-1 {
				close(othersDone)
			}
		}
	}, func(i int) {
		if !zeroDone.Load() {
			t.Errorf("emit(%d) ran before index 0 was done", i)
		}
		emitted = append(emitted, i)
	})
	if !slices.Equal(emitted, seq(n)) {
		t.Errorf("emitted %v, want 0..%d in order", emitted, n-1)
	}
}

func TestOrderedEmpty(t *testing.T) {
	claims, ids, emitted := run(t, 0, 4)
	if len(claims) != 0 || len(ids) != 0 || len(emitted) != 0 {
		t.Errorf("n=0 started %d workers and emitted %v", len(ids), emitted)
	}
}

func TestOrderedMoreWorkersThanJobs(t *testing.T) {
	claims, ids, emitted := run(t, 3, 10)
	if !slices.Equal(ids, seq(3)) {
		t.Errorf("worker indices %v, want one worker per job", ids)
	}
	if !slices.Equal(claims, []int{1, 1, 1}) || !slices.Equal(emitted, seq(3)) {
		t.Errorf("claims %v emitted %v", claims, emitted)
	}
}

func TestOrderedDefaultWorkers(t *testing.T) {
	const n = 64
	want := min(runtime.GOMAXPROCS(0), n)
	for _, workers := range []int{0, -1} {
		claims, ids, emitted := run(t, n, workers)
		if !slices.Equal(ids, seq(want)) {
			t.Errorf("workers=%d: worker indices %v, want %d workers", workers, ids, want)
		}
		for i, c := range claims {
			if c != 1 {
				t.Errorf("workers=%d: index %d claimed %d times", workers, i, c)
			}
		}
		if !slices.Equal(emitted, seq(n)) {
			t.Errorf("workers=%d: emitted out of order", workers)
		}
	}
}

// TestOrderedBreakStopsEmit: an index its body abandons is never done,
// so emit stops short of it instead of waiting forever.
func TestOrderedBreakStopsEmit(t *testing.T) {
	var emitted []int
	Ordered(8, 1, func(_ int, claim iter.Seq[int]) {
		for i := range claim {
			if i == 5 {
				break
			}
		}
	}, func(i int) { emitted = append(emitted, i) })
	if !slices.Equal(emitted, seq(5)) {
		t.Errorf("emitted %v, want 0..4", emitted)
	}
}
