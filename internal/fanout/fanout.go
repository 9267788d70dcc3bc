// Package fanout runs independent, indexed jobs on a bounded set of
// goroutines and hands them back in index order. It is the one fan-out
// behind the Figure 11 sweep (internal/exp), the what-if scenario loop
// (internal/whatif) and the batch endpoint (internal/serve): each claims
// an index, computes into a slot of its own, and reports the slots in
// order, so its output cannot depend on scheduling.
package fanout

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// Ordered runs jobs 0..n-1 on min(workers, n) goroutines; workers < 1
// means runtime.GOMAXPROCS(0). Worker w calls body(w, claim) once, and
// ranging over claim yields the next index from a cursor all workers
// share, so every index is claimed exactly once. An index is done when
// the loop body that claimed it finishes.
//
// emit runs on the caller's goroutine, for 0, 1, ..., n-1 in that
// order, each as soon as that index and every index before it are done;
// it may therefore read whatever body wrote for the index without
// locking. Ordered returns once every body has returned. A body that
// breaks out of claim leaves the index it broke on undone, and emit
// stops short of it.
func Ordered(n, workers int, body func(w int, claim iter.Seq[int]), emit func(i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cursor atomic.Int64
	done := make(chan int, n) // one send per index: workers never wait on emit
	claim := func(yield func(int) bool) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n || !yield(i) {
				return
			}
			done <- i
		}
	}
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, claim)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	landed := make([]bool, n)
	next := 0
	for i := range done {
		landed[i] = true
		for ; next < n && landed[next]; next++ {
			emit(next)
		}
	}
}
