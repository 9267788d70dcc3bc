package main

import (
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigure1Example-8   	     100	  10000000 ns/op	         1.000 packing-thr	         0.6667 singletree-thr
BenchmarkMulticastLBWarmCuts 	       3	  34139002 ns/op	        12.00 lp-solves	       104.0 simplex-iters	        11.00 warm-solves
BenchmarkSimplexDense-8     	     500	    250000 ns/op	   16384 B/op	      42 allocs/op
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	entries, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{
			Name: "BenchmarkFigure1Example", Iterations: 100, NsPerOp: 1e7,
			Metrics: map[string]float64{"packing-thr": 1, "singletree-thr": 0.6667},
		},
		{
			Name: "BenchmarkMulticastLBWarmCuts", Iterations: 3, NsPerOp: 34139002,
			Metrics: map[string]float64{"lp-solves": 12, "simplex-iters": 104, "warm-solves": 11},
		},
		{
			Name: "BenchmarkSimplexDense", Iterations: 500, NsPerOp: 250000,
			BytesPerOp: 16384, AllocsPerOp: 42,
		},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("parsed entries:\ngot:  %+v\nwant: %+v", entries, want)
	}
}

func TestParseSkipsGarbage(t *testing.T) {
	entries, err := Parse(strings.NewReader("nothing here\nBenchmarkBroken xyz\nok\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("got %d entries from garbage input: %+v", len(entries), entries)
	}
}

func TestParseKeepsHyphenatedNames(t *testing.T) {
	// A trailing -N is a GOMAXPROCS suffix and must be stripped; an
	// interior hyphen that is not numeric must survive.
	entries, err := Parse(strings.NewReader("BenchmarkFoo-bar-16 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "BenchmarkFoo-bar" {
		t.Errorf("entries = %+v, want one entry named BenchmarkFoo-bar", entries)
	}
}

// TestParseCollapsesRepeats: the repeats of `go test -count N` become
// one entry per benchmark and package, with the median of ns/op, B/op,
// allocs/op and the host rates, the counters as reported, and the
// number of repeats.
func TestParseCollapsesRepeats(t *testing.T) {
	const out = `pkg: repro
BenchmarkSweep-2   1   300 ns/op   7 simplex-iters   2.0 req/s   90 B/op   3 allocs/op
BenchmarkSweep-2   1   100 ns/op   7 simplex-iters   9.0 req/s   70 B/op   1 allocs/op
BenchmarkSweep-2   1   200 ns/op   7 simplex-iters   4.0 req/s   80 B/op   2 allocs/op
BenchmarkOnce-2    1   500 ns/op
pkg: repro/internal/lp
BenchmarkSweep-2   1   40 ns/op    5 simplex-iters
BenchmarkSweep-2   1   60 ns/op    5 simplex-iters
`
	entries, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{
			Name: "BenchmarkSweep", Runs: 3, Iterations: 1, NsPerOp: 200, BytesPerOp: 80, AllocsPerOp: 2,
			Metrics: map[string]float64{"simplex-iters": 7, "req/s": 4},
		},
		{Name: "BenchmarkOnce", Iterations: 1, NsPerOp: 500},
		{
			Name: "BenchmarkSweep", Runs: 2, Iterations: 1, NsPerOp: 50,
			Metrics: map[string]float64{"simplex-iters": 5},
		},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("collapsed entries:\ngot:  %+v\nwant: %+v", entries, want)
	}
}

// TestParseRejectsCounterDrift: repeats that report different counters
// did different work, so Parse fails and names the counter, rather
// than letting one repeat stand for the others.
func TestParseRejectsCounterDrift(t *testing.T) {
	for _, tc := range []struct{ out, want string }{
		{"BenchmarkA 1 10 ns/op 104 simplex-iters 3 req/s\nBenchmarkA 1 12 ns/op 105 simplex-iters 5 req/s\n",
			"counter simplex-iters differs between repeats: 104 in repeat 1, 105 in repeat 2"},
		{"BenchmarkA 1 10 ns/op 104 simplex-iters\nBenchmarkA 1 12 ns/op\n",
			"metric simplex-iters is missing from repeat 2 of 2"},
	} {
		_, err := Parse(strings.NewReader(tc.out))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse error %v, want one containing %q", err, tc.want)
		}
	}
}

func entry(name string, ns float64) Entry {
	return Entry{Name: name, Iterations: 1, NsPerOp: ns}
}

func TestCompareFlagsRegressions(t *testing.T) {
	baseline := []Entry{
		entry("BenchmarkA", 10e6),
		entry("BenchmarkB", 10e6),
		entry("BenchmarkC", 10e6),
		entry("BenchmarkNoise", 1000), // below min-ns: never compared
		entry("BenchmarkGone", 10e6),
	}
	candidate := []Entry{
		entry("BenchmarkA", 12e6),    // +20%: within tolerance
		entry("BenchmarkB", 13e6),    // +30%: regression
		entry("BenchmarkC", 5e6),     // improvement
		entry("BenchmarkNoise", 1e9), // huge but skipped
		entry("BenchmarkNew", 10e6),  // not in baseline: ignored
	}
	report, regressions, removed := Compare(baseline, candidate, 0.25, 0.35, 1e6)
	if regressions != 1 {
		t.Fatalf("got %d regressions, want 1\n%s", regressions, strings.Join(report, "\n"))
	}
	if removed != 1 {
		t.Fatalf("got %d removed, want 1 (BenchmarkGone)\n%s", removed, strings.Join(report, "\n"))
	}
	var sawB, sawGone, sawNew, sawImproved bool
	for _, line := range report {
		if strings.Contains(line, "REGRESSION") && strings.Contains(line, "BenchmarkB") {
			sawB = true
		}
		if strings.Contains(line, "removed") && strings.Contains(line, "BenchmarkGone") {
			sawGone = true
		}
		if strings.Contains(line, "added") && strings.Contains(line, "BenchmarkNew") {
			sawNew = true
		}
		if strings.Contains(line, "improved") && strings.Contains(line, "BenchmarkC") {
			sawImproved = true
		}
		if strings.Contains(line, "BenchmarkNoise") && !strings.Contains(line, "compared") {
			t.Errorf("noise benchmark was compared: %s", line)
		}
	}
	if !sawB || !sawGone || !sawNew || !sawImproved {
		t.Errorf("report missing expected lines (B=%v gone=%v new=%v improved=%v):\n%s",
			sawB, sawGone, sawNew, sawImproved, strings.Join(report, "\n"))
	}
}

func TestCompareCleanRun(t *testing.T) {
	baseline := []Entry{entry("BenchmarkA", 10e6)}
	candidate := []Entry{entry("BenchmarkA", 10.1e6)}
	report, regressions, removed := Compare(baseline, candidate, 0.25, 0.35, 1e6)
	if regressions != 0 || removed != 0 {
		t.Errorf("clean run reported %d regressions, %d removed:\n%s",
			regressions, removed, strings.Join(report, "\n"))
	}
}

func entryB(name string, ns, bytes float64) Entry {
	return Entry{Name: name, Iterations: 1, NsPerOp: ns, BytesPerOp: bytes}
}

// TestCompareFlagsBytesRegressions: the bytes/op gate fires on
// allocation growth beyond its own tolerance, skips benchmarks without
// -benchmem data, and can be disabled with bytesTol <= 0.
func TestCompareFlagsBytesRegressions(t *testing.T) {
	baseline := []Entry{
		entryB("BenchmarkA", 10e6, 1e6),
		entryB("BenchmarkB", 10e6, 1e6),
		entry("BenchmarkNoBytes", 10e6),
	}
	candidate := []Entry{
		entryB("BenchmarkA", 10e6, 2e6),   // +100% bytes: regression
		entryB("BenchmarkB", 10e6, 1.2e6), // +20%: within tolerance
		entry("BenchmarkNoBytes", 10e6),   // no bytes on either side: skipped
	}
	report, regressions, _ := Compare(baseline, candidate, 0.25, 0.35, 1e6)
	if regressions != 1 {
		t.Fatalf("got %d regressions, want 1 (bytes/op on BenchmarkA)\n%s", regressions, strings.Join(report, "\n"))
	}
	saw := false
	for _, line := range report {
		if strings.Contains(line, "REGRESSION") && strings.Contains(line, "B/op") && strings.Contains(line, "BenchmarkA") {
			saw = true
		}
	}
	if !saw {
		t.Errorf("report missing the bytes/op regression line:\n%s", strings.Join(report, "\n"))
	}
	if _, regressions, _ = Compare(baseline, candidate, 0.25, 0, 1e6); regressions != 0 {
		t.Errorf("bytesTol=0 still reported %d regressions", regressions)
	}
}

// TestCompareFlagsMissingBytes: a candidate entry with no B/op where
// the baseline tracks allocations (the benchmark ran without
// -benchmem) must not silently pass the bytes gate — it is flagged and
// counted as coverage drift so -strict fails, while a benchmark with
// no bytes on either side stays a plain skip.
func TestCompareFlagsMissingBytes(t *testing.T) {
	baseline := []Entry{
		entryB("BenchmarkA", 10e6, 1e6),
		entry("BenchmarkNeverHadBytes", 10e6),
	}
	candidate := []Entry{
		entry("BenchmarkA", 10e6), // bytes coverage lost
		entry("BenchmarkNeverHadBytes", 10e6),
	}
	report, regressions, removed := Compare(baseline, candidate, 0.25, 0.35, 1e6)
	if regressions != 0 {
		t.Errorf("missing bytes misread as a regression (%d):\n%s", regressions, strings.Join(report, "\n"))
	}
	if removed != 1 {
		t.Errorf("got %d removed, want 1 (bytes coverage drift on BenchmarkA)\n%s", removed, strings.Join(report, "\n"))
	}
	saw := false
	for _, line := range report {
		if strings.Contains(line, "no bytes") {
			if strings.Contains(line, "BenchmarkNeverHadBytes") {
				t.Errorf("flagged a benchmark that never tracked bytes: %s", line)
			}
			if strings.Contains(line, "BenchmarkA") {
				saw = true
			}
		}
	}
	if !saw {
		t.Errorf("report missing the no-bytes line for BenchmarkA:\n%s", strings.Join(report, "\n"))
	}
	// Disabling the bytes gate disables the drift check with it.
	if _, _, removed = Compare(baseline, candidate, 0.25, 0, 1e6); removed != 0 {
		t.Errorf("bytesTol=0 still counted %d removed", removed)
	}
}

// TestCompareCountsRemovalsBelowMinNs: a removed benchmark counts as
// baseline drift even when its baseline timing sits below the noise
// floor — min-ns gates the timing comparison, not presence.
func TestCompareCountsRemovalsBelowMinNs(t *testing.T) {
	baseline := []Entry{entry("BenchmarkTiny", 1000), entry("BenchmarkBig", 10e6)}
	candidate := []Entry{entry("BenchmarkBig", 10e6)}
	_, regressions, removed := Compare(baseline, candidate, 0.25, 0.35, 1e6)
	if regressions != 0 || removed != 1 {
		t.Errorf("got %d regressions, %d removed, want 0 and 1", regressions, removed)
	}
}

// TestCompareFlagsCounterChanges: a counter metric that changes by any
// amount, appears or disappears is a regression, even below min-ns;
// the host-dependent rates may move freely.
func TestCompareFlagsCounterChanges(t *testing.T) {
	withMetrics := func(name string, ns float64, m map[string]float64) Entry {
		e := entry(name, ns)
		e.Metrics = m
		return e
	}
	baseline := []Entry{
		withMetrics("BenchmarkSweep", 10e6, map[string]float64{"simplex-iters": 48587, "lp-solves": 513, "parallel-speedup": 0.99}),
		withMetrics("BenchmarkTiny", 1000, map[string]float64{"simplex-iters": 156, "throughput": 0.003418}),
		withMetrics("BenchmarkServe", 10e6, map[string]float64{"req/s": 445.5, "shards": 1}),
		withMetrics("BenchmarkSame", 10e6, map[string]float64{"cache-hits": 27}),
	}
	candidate := []Entry{
		withMetrics("BenchmarkSweep", 10e6, map[string]float64{"simplex-iters": 48588, "lp-solves": 513, "parallel-speedup": 1.9}),
		withMetrics("BenchmarkTiny", 1000, map[string]float64{"simplex-iters": 156, "warm-solves": 6}),
		withMetrics("BenchmarkServe", 10e6, map[string]float64{"req/s": 900, "shards": 2}),
		withMetrics("BenchmarkSame", 10e6, map[string]float64{"cache-hits": 27}),
	}
	report, regressions, removed := Compare(baseline, candidate, 0.25, 0.35, 1e6)
	if regressions != 3 || removed != 0 {
		t.Fatalf("got %d regressions, %d removed, want 3 and 0\n%s", regressions, removed, strings.Join(report, "\n"))
	}
	want := []string{
		"COUNTER: BenchmarkSweep: simplex-iters 48587 -> 48588",
		"COUNTER: BenchmarkTiny: throughput = 0.003418 in the baseline is not reported",
		"COUNTER: BenchmarkTiny: warm-solves = 6 is not in the baseline",
	}
	var got []string
	for _, line := range report {
		if strings.HasPrefix(line, "COUNTER") {
			got = append(got, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("counter lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
