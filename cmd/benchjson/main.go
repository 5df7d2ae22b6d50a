// Command benchjson converts `go test -bench` text output into a JSON
// baseline: a map from package-qualified benchmark name to its metrics
// (iterations, ns/op, B/op, allocs/op). It reads the benchmark text on
// stdin and writes JSON to stdout, so a repo-wide baseline is one pipe:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x ./... | benchjson > BENCH.json
//
// The GOMAXPROCS suffix (-8 in BenchmarkFoo-8) is stripped so baselines
// diff cleanly across machines; the package path prefix keeps same-named
// benchmarks in different packages apart.
//
// With -diff, benchjson instead compares two baseline files:
//
//	benchjson -diff BENCH.json bench-current.json
//
// printing a per-benchmark delta table sorted by ns/op regression
// (worst first), with added and removed benchmarks called out. The diff
// is informational — single-shot CI timings are too noisy to gate on —
// but allocs/op changes on zero-alloc benchmarks read directly.
//
// With -gate, benchjson enforces allocs/op budgets — the one benchmark
// metric that is deterministic enough to fail CI on:
//
//	benchjson -gate BENCH_BUDGET.json bench-current.json
//
// The budget file maps benchmark names to their maximum allowed
// allocs/op; a missing benchmark or an exceeded budget exits non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"energyprop/internal/cli"
)

func main() {
	diff := flag.Bool("diff", false, "compare two baseline files: benchjson -diff old.json new.json")
	gate := flag.Bool("gate", false, "enforce allocs/op budgets: benchjson -gate budget.json current.json")
	flag.Usage = func() {
		cli.Errorf(os.Stderr, "usage: benchjson [-diff old.json new.json | -gate budget.json current.json]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *diff {
		os.Exit(runDiff(flag.Args(), os.Stdout, os.Stderr))
	}
	if *gate {
		os.Exit(runGate(flag.Args(), os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr))
}

// Result is one benchmark's parsed metrics. The byte and allocation
// fields are emitted even when zero: a zero-alloc benchmark's 0
// allocs/op is exactly the number a baseline diff must not lose (a
// formerly-omitted zero reads the same as "not measured").
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// run is main's testable body; it returns the process exit code. The
// baseline is only useful complete: zero parsed entries (a typo'd bench
// pipeline would otherwise commit "{}" as a baseline) and a failed
// stdout write (closed pipe, full disk) both exit non-zero.
func run(stdin io.Reader, stdout, stderr io.Writer) int {
	results, err := parse(stdin)
	if err != nil {
		cli.Errorf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(results) == 0 {
		cli.Errorf(stderr, "benchjson: no benchmark lines on stdin\n")
		return 1
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		cli.Errorf(stderr, "benchjson: %v\n", err)
		return 1
	}
	out := cli.NewWriter(stdout)
	out.Printf("%s\n", data)
	if err := out.Err(); err != nil {
		cli.Errorf(stderr, "benchjson: writing baseline: %v\n", err)
		return 1
	}
	return 0
}

// parse scans go-test benchmark output: `pkg:` lines set the package
// qualifier for the Benchmark lines that follow it.
func parse(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		out[name] = res
	}
	return out, sc.Err()
}

// parseBenchLine splits one result line — name, iteration count, then
// (value, unit) pairs — and keeps the units the baseline tracks.
func parseBenchLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Result{}, false
	}
	name := trimProcSuffix(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			seen = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return name, res, seen
}

// trimProcSuffix drops the trailing -GOMAXPROCS from a benchmark name
// (BenchmarkFoo/bar-8 -> BenchmarkFoo/bar), leaving names without one
// untouched.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// runDiff implements -diff: load two baselines and print the delta
// table. It exits non-zero only on usage or I/O errors — timing noise
// makes per-run deltas informational, not a gate.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		cli.Errorf(stderr, "benchjson: -diff needs exactly two files: old.json new.json\n")
		return 2
	}
	oldRes, err := loadBaseline(args[0])
	if err != nil {
		cli.Errorf(stderr, "benchjson: %v\n", err)
		return 1
	}
	newRes, err := loadBaseline(args[1])
	if err != nil {
		cli.Errorf(stderr, "benchjson: %v\n", err)
		return 1
	}
	out := cli.NewWriter(stdout)
	printDiff(out, oldRes, newRes)
	if err := out.Err(); err != nil {
		cli.Errorf(stderr, "benchjson: writing diff: %v\n", err)
		return 1
	}
	return 0
}

// loadBaseline reads one baseline JSON file.
func loadBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res map[string]Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return res, nil
}

// runGate implements -gate: load an allocs/op budget file (a map from
// qualified benchmark name to the maximum allowed allocs/op) and a
// current baseline, and fail when a budgeted benchmark is missing or
// over budget. Unlike timings, allocation counts are deterministic at
// steady state, so they can gate CI.
func runGate(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		cli.Errorf(stderr, "benchjson: -gate needs exactly two files: budget.json current.json\n")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		cli.Errorf(stderr, "benchjson: %v\n", err)
		return 1
	}
	var budgets map[string]float64
	if err := json.Unmarshal(data, &budgets); err != nil {
		cli.Errorf(stderr, "benchjson: budget file %s: %v\n", args[0], err)
		return 1
	}
	if len(budgets) == 0 {
		cli.Errorf(stderr, "benchjson: budget file %s has no entries\n", args[0])
		return 1
	}
	cur, err := loadBaseline(args[1])
	if err != nil {
		cli.Errorf(stderr, "benchjson: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	out := cli.NewWriter(stdout)
	failed := 0
	for _, name := range names {
		res, ok := cur[name]
		if !ok {
			cli.Errorf(stderr, "benchjson: budgeted benchmark %s missing from %s\n", name, args[1])
			failed++
			continue
		}
		if res.AllocsPerOp > budgets[name] {
			cli.Errorf(stderr, "benchjson: %s: %.0f allocs/op exceeds budget %.0f\n", name, res.AllocsPerOp, budgets[name])
			failed++
			continue
		}
		out.Printf("ok: %s %.0f allocs/op within budget %.0f\n", name, res.AllocsPerOp, budgets[name])
	}
	if err := out.Err(); err != nil {
		cli.Errorf(stderr, "benchjson: writing gate report: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// diffRow is one benchmark's old/new pairing.
type diffRow struct {
	name     string
	old, cur Result
	ratio    float64 // new ns/op over old; >1 is a regression
}

// printDiff renders the delta table, worst ns/op regression first, then
// the added/removed benchmark lists.
func printDiff(out *cli.Writer, oldRes, newRes map[string]Result) {
	var rows []diffRow
	var added, removed []string
	for name, cur := range newRes {
		old, ok := oldRes[name]
		if !ok {
			added = append(added, name)
			continue
		}
		r := diffRow{name: name, old: old, cur: cur}
		if old.NsPerOp > 0 {
			r.ratio = cur.NsPerOp / old.NsPerOp
		}
		rows = append(rows, r)
	}
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: equal ratios fall through to the name ordering, which needs exact equality to stay deterministic
		if rows[i].ratio != rows[j].ratio {
			return rows[i].ratio > rows[j].ratio
		}
		return rows[i].name < rows[j].name
	})
	sort.Strings(added)
	sort.Strings(removed)

	out.Printf("%-60s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, r := range rows {
		delta := "n/a"
		if r.ratio > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.ratio-1)*100)
		}
		oldAllocs := fmt.Sprintf("%.0f", r.old.AllocsPerOp)
		allocs := fmt.Sprintf("%.0f", r.cur.AllocsPerOp)
		if allocs != oldAllocs {
			allocs = oldAllocs + "->" + allocs
		}
		out.Printf("%-60s %14.1f %14.1f %8s %10s\n", r.name, r.old.NsPerOp, r.cur.NsPerOp, delta, allocs)
	}
	for _, name := range added {
		out.Printf("added:   %s\n", name)
	}
	for _, name := range removed {
		out.Printf("removed: %s\n", name)
	}
}
