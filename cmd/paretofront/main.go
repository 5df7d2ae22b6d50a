// Command paretofront computes bi-objective Pareto fronts and trade-offs
// from a CSV of configurations. Input rows are "label,time,energy" (a
// header line is skipped if its numeric fields do not parse); input comes
// from a file argument or stdin.
//
// The default (global-front) path streams: each parsed row is inserted
// into an incremental Pareto index (internal/parindex), so memory is
// bounded by the front, not the input — an arbitrarily long sweep pipe
// costs only its non-dominated survivors. -ranks needs every rank, so
// it materializes the point set and runs the batch ranking.
//
// Usage:
//
//	gpusweep -device p100 -n 10240 | paretofront -ranks
//	paretofront points.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"energyprop/internal/pareto"
	"energyprop/internal/parindex"
)

func main() {
	ranks := flag.Bool("ranks", false, "print all non-dominated ranks, not only the global front")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretofront: %v\n", err)
			os.Exit(1)
		}
		defer f.Close() //lint:ignore droppederr input is read-only and fully consumed; read errors surface via the scanner
		in = f
	}
	var allRanks [][]pareto.Point
	if *ranks {
		points, err := readPoints(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretofront: %v\n", err)
			os.Exit(1)
		}
		if len(points) == 0 {
			fmt.Fprintln(os.Stderr, "paretofront: no data points")
			os.Exit(1)
		}
		allRanks = pareto.Ranks(points)
	} else {
		// Single-pass: the incremental front over the streamed rows equals
		// batch rank 0 (a tested invariant of internal/parindex).
		var front parindex.Front
		n := 0
		err := forEachPoint(in, func(p pareto.Point) error {
			n++
			front.Insert(parindex.Entry{Label: p.Label, Time: p.Time, Energy: p.Energy})
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretofront: %v\n", err)
			os.Exit(1)
		}
		if n == 0 {
			fmt.Fprintln(os.Stderr, "paretofront: no data points")
			os.Exit(1)
		}
		allRanks = [][]pareto.Point{front.Points()}
	}

	limit := 1
	if *ranks {
		limit = len(allRanks)
	}
	for i := 0; i < limit && i < len(allRanks); i++ {
		fmt.Printf("rank %d (%d points):\n", i, len(allRanks[i]))
		tos, err := pareto.TradeOffs(allRanks[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretofront: %v\n", err)
			os.Exit(1)
		}
		for _, to := range tos {
			fmt.Printf("  %-28s t=%.6g E=%.6g degradation=%.1f%% saving=%.1f%%\n",
				to.Point.Label, to.Point.Time, to.Point.Energy,
				to.PerfDegradationPct, to.EnergySavingPct)
		}
	}
}

// forEachPoint parses configuration outcomes from CSV one line at a
// time, handing each point to fn as soon as it parses — the streaming
// core shared by the single-pass front path and the materializing
// readPoints. Three layouts are accepted (auto-detected per line,
// header tolerated):
//
//   - plain:    label,time,energy
//   - gpusweep: config,seconds,dyn_power_w,dyn_energy_j
//   - legacy:   label,bs,g,r,seconds,dyn_power_w,dyn_energy_j,...
//
// The first field may be double-quoted (older sweeps quoted config
// labels containing commas; current config keys need no quoting). Time
// and energy must be positive finite numbers: the front's dominance
// order and the trade-off percentages are undefined otherwise.
func forEachPoint(r io.Reader, fn func(pareto.Point) error) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, rest, err := splitLabel(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		fields := strings.Split(rest, ",")
		var tIdx, eIdx int
		switch {
		case len(fields) >= 6:
			// legacy sweep layout: bs,g,r,seconds,power,energy,...
			tIdx, eIdx = 3, 5
		case len(fields) == 3:
			// gpusweep layout: seconds,power,energy after the config key
			tIdx, eIdx = 0, 2
		case len(fields) >= 2:
			tIdx, eIdx = 0, 1
		default:
			return fmt.Errorf("line %d: want label,time,energy", lineNo)
		}
		t, err1 := strconv.ParseFloat(strings.TrimSpace(fields[tIdx]), 64)
		e, err2 := strconv.ParseFloat(strings.TrimSpace(fields[eIdx]), 64)
		if err1 != nil || err2 != nil {
			if lineNo == 1 {
				continue // header
			}
			return fmt.Errorf("line %d: bad numeric fields", lineNo)
		}
		for _, v := range [2]float64{t, e} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("line %d: time and energy must be positive finite numbers, got %v", lineNo, v)
			}
		}
		if err := fn(pareto.Point{Label: label, Time: t, Energy: e}); err != nil {
			return err
		}
	}
	return sc.Err()
}

// readPoints materializes the full point set — the -ranks path, which
// needs every rank, not just the streamed global front.
func readPoints(r io.Reader) ([]pareto.Point, error) {
	var out []pareto.Point
	err := forEachPoint(r, func(p pareto.Point) error {
		out = append(out, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// splitLabel peels the first CSV field, honoring double quotes.
func splitLabel(line string) (label, rest string, err error) {
	if !strings.HasPrefix(line, "\"") {
		i := strings.IndexByte(line, ',')
		if i < 0 {
			return "", "", fmt.Errorf("no comma in %q", line)
		}
		return line[:i], line[i+1:], nil
	}
	end := strings.Index(line[1:], "\"")
	if end < 0 {
		return "", "", fmt.Errorf("unterminated quote in %q", line)
	}
	label = line[1 : 1+end]
	rest = line[1+end+1:]
	rest = strings.TrimPrefix(rest, ",")
	return label, rest, nil
}
