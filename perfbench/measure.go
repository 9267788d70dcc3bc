package main

import (
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run performs its whole set-up; setup_s
// is the median, so one slow repetition (a page-cache miss, a noisy
// neighbour) does not move it.
const setupReps = 5

// repeatSetup runs setup setupReps times, closing every instance but
// the last, and returns the last instance with the duration of each
// repetition.
func repeatSetup[T any](setup func() (T, error), close func(T)) (T, []time.Duration, error) {
	var (
		inst  T
		times []time.Duration
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			close(inst)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(t0))
		inst = v
	}
	return inst, times, nil
}

// phase is one measured window: its wall time, the latencies of the
// ops completed in it, live-heap samples and runtime counter deltas.
type phase struct {
	wall    time.Duration
	lat     *latencyHist
	heap    []float64 // bytes
	allocs  float64   // heap bytes allocated
	gcCPU   float64   // GC CPU seconds (runtime estimate)
	busyCPU float64   // CPU seconds not idle (runtime estimate)
}

func (p *phase) ops() int { return p.lat.n }

func (p *phase) opsPerSecond() float64 {
	return float64(p.ops()) / p.wall.Seconds()
}

func (p *phase) allocKBPerOp() float64 {
	return p.allocs / 1024 / float64(max(p.ops(), 1))
}

// gcCPUFrac is the GC's share of the CPU time the process used, idle
// time left out: /cpu/classes/total counts GOMAXPROCS × wall time, so
// a serial workload would read half its GC share.
func (p *phase) gcCPUFrac() float64 {
	return ratio(p.gcCPU, p.busyCPU)
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() [4]float64 {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [4]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// heapSampleEvery is the live-heap sampling interval.
const heapSampleEvery = 10 * time.Millisecond

// phaseClock measures one phase: wall time, runtime counters and a
// background live-heap sampler. Ops report their latency through
// record, which is safe for concurrent clients. Everything it stores
// during the phase is allocated before the phase starts, so the live
// heap it samples does not grow with the op count.
type phaseClock struct {
	start time.Time
	rt0   [4]float64
	stop  chan struct{}
	done  chan struct{}

	mu   sync.Mutex
	lat  *latencyHist
	heap []float64
}

// startPhase starts a phase that is meant to run for about budget.
func startPhase(budget time.Duration) *phaseClock {
	pc := &phaseClock{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		lat:  new(latencyHist),
		heap: make([]float64, 0, 2*int(budget/heapSampleEvery)+2),
	}
	go pc.sampleHeap()
	pc.rt0 = readRuntime()
	pc.start = time.Now()
	return pc
}

func (pc *phaseClock) sampleHeap() {
	defer close(pc.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		pc.mu.Lock()
		pc.heap = append(pc.heap, float64(s[0].Value.Uint64()))
		pc.mu.Unlock()
		select {
		case <-pc.stop:
			return
		case <-t.C:
		}
	}
}

func (pc *phaseClock) record(d time.Duration) {
	pc.mu.Lock()
	pc.lat.record(d)
	pc.mu.Unlock()
}

func (pc *phaseClock) finish() *phase {
	wall := time.Since(pc.start)
	rt1 := readRuntime()
	close(pc.stop)
	<-pc.done
	return &phase{
		wall:    wall,
		lat:     pc.lat,
		heap:    pc.heap,
		allocs:  rt1[0] - pc.rt0[0],
		gcCPU:   rt1[1] - pc.rt0[1],
		busyCPU: (rt1[2] - rt1[3]) - (pc.rt0[2] - pc.rt0[3]),
	}
}

// latencyHist holds latencies in storage of a fixed size: log-linear
// buckets, exact up to 2·histSub ns and then histSub buckets per power
// of two, so a bucket is less than 1/histSub of its values wide. A
// slice growing by 8 B per op raised plan-hot's heap_p90_mb from 2.8 to
// 4.2–4.3 MB, more the more ops a run completed, so a faster program
// read as a heap regression.
type latencyHist struct {
	n      int
	counts [histBuckets]int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func histBucket(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return shift*histSub + int(v>>shift)
}

// histRange is the range [lo, lo+width) of bucket b, in ns.
func histRange(b int) (lo, width float64) {
	shift := max(b/histSub-1, 0)
	return float64((b - shift*histSub) << shift), float64(int(1) << shift)
}

func (h *latencyHist) record(d time.Duration) {
	h.counts[histBucket(d)]++
	h.n++
}

// quantile is the q-quantile, interpolated between order statistics
// as quantileFloat does, with the values of a bucket taken as evenly
// spread over its range (0 for an empty histogram).
func (h *latencyHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	pos := q * float64(h.n-1)
	i := int(pos)
	a := h.at(i)
	if i+1 >= h.n {
		return time.Duration(a)
	}
	return time.Duration(a + (pos-float64(i))*(h.at(i+1)-a))
}

// at is the value of order statistic i (from 0).
func (h *latencyHist) at(i int) float64 {
	for b, c := range h.counts {
		if int64(i) < c {
			lo, width := histRange(b)
			return lo + width*(float64(i)+0.5)/float64(c)
		}
		i -= int(c)
	}
	return 0
}

// morePasses reports whether a phase that has run passes whole passes
// in elapsed should start another: only while at least half of a mean
// pass still fits in budget, so a phase ends within half a pass of its
// budget. The first pass always runs.
func morePasses(elapsed, budget time.Duration, passes int) bool {
	return passes == 0 || elapsed+elapsed/time.Duration(2*passes) <= budget
}

// closedLoop runs clients closed-loop clients for about budget. Client
// c replays its op list (ops 0..n(c)-1) in whole passes, as long as
// morePasses allows. op returns whether the op's output passed its
// checks; its latency is recorded either way.
func closedLoop(pc *phaseClock, budget time.Duration, clients int, n func(c int) int, op func(c, i int) bool) (attempted, failed int) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			att, bad := 0, 0
			for pass := 0; morePasses(time.Since(pc.start), budget, pass); pass++ {
				for i := 0; i < n(c); i++ {
					t0 := time.Now()
					ok := op(c, i)
					pc.record(time.Since(t0))
					att++
					if !ok {
						bad++
					}
				}
			}
			mu.Lock()
			attempted += att
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return attempted, failed
}

// quantile returns the q-quantile of ds, interpolating linearly
// between order statistics (0 for an empty sample).
func quantile(ds []time.Duration, q float64) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(quantileFloat(fs, q))
}

func quantileFloat(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
