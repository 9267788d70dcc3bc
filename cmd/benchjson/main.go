// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON file, so CI can track the performance
// trajectory (time, allocations and the solver's custom metrics such
// as simplex-iters and warm-solves) from run to run.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x -benchmem ./... | benchjson -o BENCH_sweep.json
//	benchjson -o BENCH_sweep.json bench.out
//	benchjson -compare [-tolerance 0.25] [-bytes-tolerance 0.35] [-min-ns 1000000] old.json new.json
//
// Every `BenchmarkName-P  N  <value> <unit> ...` line becomes one JSON
// object; ns/op, B/op and allocs/op map to fixed fields, and every
// other reported unit (the repo's benchmarks report reproduced paper
// quantities and solver statistics) lands in the metrics map.
//
// The -compare mode is CI's bench-regression guard: it exits non-zero
// when any benchmark present in both files has regressed its ns/op by
// more than -tolerance (relative) or its bytes/op by more than
// -bytes-tolerance against the committed baseline — allocation wins
// are locked in the same way timing wins are — or when any of its
// counter metrics changed at all. Counters are every custom metric
// except the host-dependent rates (req/s, events-per-sec,
// parallel-speedup, MB/s) and the shard count: simplex iterations, LP
// solves, cache hits and the reproduced paper quantities repeat
// exactly on any machine, so any change means the benchmark did
// different work.
// Benchmarks faster than -min-ns in the baseline skip the timing and
// bytes gates — at -benchtime=1x their timing is dominated by
// scheduler noise — but not the counter gate.
// Benchmarks present in only one of the two files are reported to
// stderr (added ones are informational; removed ones usually mean the
// committed baseline drifted after a rename), and -strict turns
// removals into failures so CI catches the drift instead of silently
// shrinking its coverage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "BENCH_sweep.json", "output JSON file (\"-\" for stdout)")
	compare := flag.Bool("compare", false, "compare two JSON files (baseline, candidate) and fail on ns/op and bytes/op regressions and counter changes")
	tolerance := flag.Float64("tolerance", 0.25, "relative ns/op regression allowed by -compare")
	bytesTol := flag.Float64("bytes-tolerance", 0.35, "relative bytes/op regression allowed by -compare (0 disables the bytes gate)")
	minNs := flag.Float64("min-ns", 1e6, "with -compare, skip benchmarks whose baseline ns/op is below this (timing noise)")
	strict := flag.Bool("strict", false, "with -compare, also fail when a baseline benchmark was not run (baseline drift)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare wants exactly two arguments: baseline.json candidate.json")
		}
		old, err := loadEntries(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := loadEntries(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		report, regressions, removed := Compare(old, cur, *tolerance, *bytesTol, *minNs)
		for _, line := range report {
			fmt.Fprintln(os.Stderr, line)
		}
		if regressions > 0 {
			log.Fatalf("%d regression(s) (ns/op beyond %.0f%%, bytes/op beyond %.0f%% or a changed counter) vs %s",
				regressions, *tolerance*100, *bytesTol*100, flag.Arg(0))
		}
		if *strict && removed > 0 {
			log.Fatalf("%d baseline benchmark(s) lost coverage — not run, or run without -benchmem (-strict): update %s", removed, flag.Arg(0))
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	entries, err := Parse(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(entries) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(entries), *out)
}

func loadEntries(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return entries, nil
}

// hostMetrics are the custom metrics whose value depends on the machine
// that ran the benchmark. Every other custom metric is a counter.
var hostMetrics = map[string]bool{
	"req/s":            true,
	"events-per-sec":   true,
	"parallel-speedup": true,
	"MB/s":             true,
	"shards":           true, // GOMAXPROCS-dependent
}

// counterChanges reports every counter metric whose value differs
// between the two runs of one benchmark, or that only one run reports.
func counterChanges(old, now Entry) []string {
	names := make([]string, 0, len(old.Metrics)+len(now.Metrics))
	for k := range old.Metrics {
		names = append(names, k)
	}
	for k := range now.Metrics {
		if _, ok := old.Metrics[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var lines []string
	for _, k := range names {
		if hostMetrics[k] {
			continue
		}
		a, inOld := old.Metrics[k]
		b, inNow := now.Metrics[k]
		switch {
		case !inNow:
			lines = append(lines, fmt.Sprintf("COUNTER: %s: %s = %g in the baseline is not reported", old.Name, k, a))
		case !inOld:
			lines = append(lines, fmt.Sprintf("COUNTER: %s: %s = %g is not in the baseline", old.Name, k, b))
		case a != b:
			lines = append(lines, fmt.Sprintf("COUNTER: %s: %s %g -> %g", old.Name, k, a, b))
		}
	}
	return lines
}

// Compare checks the candidate entries against the baseline and
// returns a human-readable report plus the number of regressions —
// ns/op beyond tolerance, bytes/op beyond bytesTol when both sides
// report allocation bytes (bytesTol <= 0 disables that gate), or a
// counter metric that changed (one per metric, whatever minNs) — and the
// number of baseline benchmarks whose coverage the candidate lost:
// either not run at all, or run without -benchmem when the baseline
// tracks B/op (a zero candidate bytes/op must not read as a win). Baseline
// entries below minNs are skipped (their single-iteration timings are
// noise; the bytes gate shares the filter because tiny benchmarks
// allocate per-call noise too). Benchmarks present in only one file
// are reported by name: removals usually mean the baseline drifted
// after a rename (-strict makes main fail on them), additions are new
// coverage the baseline does not track yet. Only a measured regression
// of a benchmark present in both files counts.
func Compare(baseline, candidate []Entry, tolerance, bytesTol, minNs float64) (report []string, regressions, removed int) {
	cur := make(map[string]Entry, len(candidate))
	for _, e := range candidate {
		cur[e.Name] = e
	}
	base := make(map[string]bool, len(baseline))
	skipped := 0
	for _, old := range baseline {
		base[old.Name] = true
		now, ok := cur[old.Name]
		if !ok {
			removed++
			report = append(report, fmt.Sprintf("removed: %s is in the baseline but was not run", old.Name))
			continue
		}
		changed := counterChanges(old, now)
		regressions += len(changed)
		report = append(report, changed...)
		if old.NsPerOp < minNs {
			skipped++
			continue
		}
		ratio := now.NsPerOp / old.NsPerOp
		switch {
		case ratio > 1+tolerance:
			regressions++
			report = append(report, fmt.Sprintf("REGRESSION: %s: %.0f ns/op -> %.0f ns/op (%+.1f%% > %.0f%%)",
				old.Name, old.NsPerOp, now.NsPerOp, (ratio-1)*100, tolerance*100))
		case ratio < 1-tolerance:
			report = append(report, fmt.Sprintf("improved: %s: %.0f ns/op -> %.0f ns/op (%+.1f%%)",
				old.Name, old.NsPerOp, now.NsPerOp, (ratio-1)*100))
		}
		if bytesTol > 0 && old.BytesPerOp > 0 && now.BytesPerOp == 0 {
			// The baseline tracks allocations but the candidate run
			// reported none — almost always a missing -benchmem. Treating
			// it as "no regression" would let the bytes gate silently
			// lose coverage, so it counts as drift (-strict fails on it)
			// instead of poisoning the ratio with a zero.
			removed++
			report = append(report, fmt.Sprintf("no bytes: %s has %.0f B/op in the baseline but the candidate reports none (missing -benchmem?)",
				old.Name, old.BytesPerOp))
		}
		if bytesTol > 0 && old.BytesPerOp > 0 && now.BytesPerOp > 0 {
			bratio := now.BytesPerOp / old.BytesPerOp
			switch {
			case bratio > 1+bytesTol:
				regressions++
				report = append(report, fmt.Sprintf("REGRESSION: %s: %.0f B/op -> %.0f B/op (%+.1f%% > %.0f%%)",
					old.Name, old.BytesPerOp, now.BytesPerOp, (bratio-1)*100, bytesTol*100))
			case bratio < 1-bytesTol:
				report = append(report, fmt.Sprintf("improved: %s: %.0f B/op -> %.0f B/op (%+.1f%%)",
					old.Name, old.BytesPerOp, now.BytesPerOp, (bratio-1)*100))
			}
		}
	}
	added := 0
	for _, e := range candidate {
		if !base[e.Name] {
			added++
			report = append(report, fmt.Sprintf("added: %s was run but is not in the baseline", e.Name))
		}
	}
	report = append(report, fmt.Sprintf("compared %d baseline benchmarks (%d below %.0fms skipped): %d regression(s), %d removed, %d added",
		len(baseline), skipped, minNs/1e6, regressions, removed, added))
	return report, regressions, removed
}

// Parse extracts benchmark entries from `go test -bench` output.
// Non-benchmark lines (headers, PASS/ok, compile chatter) are skipped.
func Parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		e, ok := parseLine(line)
		if !ok {
			continue
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

// parseLine parses one line of the form
//
//	BenchmarkName-8   3   34139002 ns/op   104.0 simplex-iters   16 B/op   2 allocs/op
func parseLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = val
		case "B/op":
			e.BytesPerOp = val
		case "allocs/op":
			e.AllocsPerOp = val
		case "MB/s":
			e.Metrics["MB/s"] = val
		default:
			e.Metrics[unit] = val
		}
	}
	if len(e.Metrics) == 0 {
		e.Metrics = nil
	}
	return e, true
}
