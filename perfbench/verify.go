package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"energyprop/internal/pareto"
	"energyprop/internal/parindex"
	"energyprop/internal/store"
)

// queriesPerKey is the size of warm-query-mix's /optimize table per key.
const queriesPerKey = 64

// buildQueries draws the /optimize table of warm-query-mix and computes
// each query's reply by brute force over the pre-filled records, with
// pareto.Front as the oracle. The index only ever receives these records
// (and duplicates of their points) under the queried keys, so the reply
// is exact.
func (e *env) buildQueries(seed int64) error {
	rng := rand.New(rand.NewSource(mixSeed(seed, tagQueries)))
	e.queries = make([][]request, len(warmKeys))
	for i, k := range warmKeys {
		var results []store.MeasuredPoint
		for _, p := range e.prefill {
			if p.key != k {
				continue
			}
			rec, err := store.LoadCampaign(bytes.NewReader(p.body))
			if err != nil {
				return fmt.Errorf("pre-fill %v: %w", k, err)
			}
			results = append(results, rec.Results...)
		}
		pts := make([]pareto.Point, len(results))
		for j, m := range results {
			pts[j] = pareto.Point{Label: strconv.Itoa(j), Time: m.Seconds, Energy: m.DynEnergyJ}
		}
		front := pareto.Front(pts)
		if len(front) == 0 {
			return fmt.Errorf("pre-fill %v: empty front", k)
		}
		qs := make([]request, queriesPerKey)
		for j := range qs {
			f := front[rng.Intn(len(front))]
			slack := 1 + 0.05*rng.Float64()
			if j%2 == 0 {
				qs[j] = optimize(k, f.Time*slack, 0)
			} else {
				qs[j] = optimize(k, 0, f.Energy*slack)
			}
			best, ok := bruteBest(front, qs[j].maxTime, qs[j].maxEnergy)
			if !ok {
				return fmt.Errorf("oracle: %s has no answer", qs[j].path)
			}
			m := results[mustAtoi(best.Label)]
			entry := parindex.Entry{Config: m.Config, Label: m.Label, Time: m.Seconds, Energy: m.DynEnergyJ}
			body, err := encodeReply(optimizeReply(qs[j], entry, len(front)))
			if err != nil {
				return err
			}
			qs[j].expect = body
		}
		e.queries[i] = qs
	}
	return nil
}

// bruteBest scans every front point: under maxTime the least energy among
// points no slower, under maxEnergy the least time among points no
// hungrier.
func bruteBest(front []pareto.Point, maxTime, maxEnergy float64) (pareto.Point, bool) {
	var best pareto.Point
	found := false
	for _, p := range front {
		if maxTime > 0 && p.Time <= maxTime && (!found || p.Energy < best.Energy) {
			best, found = p, true
		}
		if maxEnergy > 0 && p.Energy <= maxEnergy && (!found || p.Time < best.Time) {
			best, found = p, true
		}
	}
	return best, found
}

func mustAtoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(err) // labels are written by buildQueries itself
	}
	return n
}

// oracle is the serial, uncached replay every checked reply must equal.
var oracle = &replayer{}

// checkReply replays r serially without a cache and compares the bytes.
func checkReply(ctx context.Context, r request, body []byte) error {
	if r.ep == epOptimize || r.expect != nil {
		if !bytes.Equal(body, r.expect) {
			return fmt.Errorf("%s reply differs from the oracle", r.path)
		}
		return nil
	}
	want, err := oracle.replay(ctx, r, 1, -1)
	if err != nil {
		return fmt.Errorf("oracle replay of %s %v seed %d: %w", r.ep, r.key, r.seed, err)
	}
	if !bytes.Equal(body, want.body) {
		return fmt.Errorf("%s %v seed %d config %q: reply differs from the serial uncached replay:\n got %s\nwant %s",
			r.ep, r.key, r.seed, r.config, body, want.body)
	}
	return nil
}

// verification is the post-run output check.
type verification struct {
	checked int
	failed  int
	err     error
	// digest and points cover the first verifyFirst replies of every
	// client, so they depend only on the seed.
	digest string
	points int
}

func verifyReplies(ctx context.Context, e *env, clients []*client) verification {
	var v verification
	fail := func(err error) {
		v.failed++
		if v.err == nil {
			v.err = err
		}
	}
	// Pre-filled replies are the /optimize oracle's input and the
	// expected body of every /sweep replay, so they are checked too.
	for _, p := range e.prefill {
		v.checked++
		if err := checkReply(ctx, p.sweepRequest(e), p.body); err != nil {
			fail(err)
		}
	}
	h := sha256.New()
	for _, c := range clients {
		for _, k := range c.kept {
			v.checked++
			if err := checkReply(ctx, k.r, k.body); err != nil {
				fail(err)
			}
			if k.seq < verifyFirst {
				h.Write([]byte(fmt.Sprintf("%d/%d/%d:", c.id, k.seq, len(k.body))))
				h.Write(k.body)
				v.points += k.r.points
			}
		}
	}
	v.digest = hex.EncodeToString(h.Sum(nil))[:12]
	return v
}

func (p prefilled) sweepRequest(e *env) request { return e.sweep(p.key, p.seed, 1) }

// canaryGolden holds the simulated counts and reply digest of a fixed,
// seed-independent request set, recorded from the simulator as it was
// when the benchmark was defined. A change meant only to be faster must
// reproduce it exactly; a change that alters simulated values must
// update it deliberately.
//
//go:embed canary.json
var canaryGolden []byte

type canaryResult struct {
	Digest      string `json:"digest"`
	Points      int    `json:"points"`
	Runs        int    `json:"runs"`
	MeasureRuns int    `json:"measure_runs"`
	Samples     int    `json:"samples"`
}

// canaryRequests cover one GPU, CPU and hetero sweep and a GPU /measure.
func canaryRequests(e *env) []request {
	return []request{
		e.sweep(key{"p100", "dgemm", 8192, 8}, 101, 1),
		e.sweep(key{"haswell", "fft", 256, 1}, 102, 1),
		e.sweep(key{"hetero", "dgemm", 256, 3}, 103, 1),
		e.measure(key{"k40c", "dgemm", 10240, 8}, "bs=16/g=4/r=2", 104),
	}
}

// runCanary replays the canary set serially and uncached, re-measures
// every point in a per-point pass, and compares the counts and digest
// with the golden.
func runCanary(ctx context.Context, e *env) (canaryResult, error) {
	var got canaryResult
	var total passCounts
	h := sha256.New()
	for _, r := range canaryRequests(e) {
		out, err := oracle.replay(ctx, r, 1, -1)
		if err != nil {
			return got, fmt.Errorf("canary %s %v: %w", r.ep, r.key, err)
		}
		h.Write(out.body)
		c, err := pointPass(ctx, nil, -1, "", out.dev, r.key.workload(), out.configs, r.seed, 1, out.reports)
		if err != nil {
			return got, fmt.Errorf("canary %s %v: %w", r.ep, r.key, err)
		}
		total.add(c)
	}
	got = canaryResult{
		Digest: hex.EncodeToString(h.Sum(nil))[:16], Points: total.points, Runs: total.runs,
		MeasureRuns: total.measureRuns, Samples: total.samples,
	}
	var want canaryResult
	if err := json.Unmarshal(canaryGolden, &want); err != nil {
		return got, fmt.Errorf("canary.json: %w", err)
	}
	if got != want {
		return got, fmt.Errorf("simulated counts changed: got %+v, want %+v (canary.json)", got, want)
	}
	return got, nil
}

// seedRecord is what must repeat exactly across runs with one seed.
type seedRecord struct {
	Digest        string  `json:"digest"`
	Points        int     `json:"points"`
	RunsPerPoint  float64 `json:"runs_per_point,omitempty"`
	SamplesPerRun float64 `json:"samples_per_run,omitempty"`
}

// checkSeedRecord compares rec with what an earlier run of the same
// workload and seed recorded under dir, recording it on first sight.
// Fields an earlier run left zero are filled in.
func checkSeedRecord(dir, workload string, seed int64, rec seedRecord) error {
	path := filepath.Join(dir, "seeds.json")
	all := map[string]seedRecord{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	id := workload + "/" + strconv.FormatInt(seed, 10)
	if old, ok := all[id]; ok {
		if old.Digest != rec.Digest || old.Points != rec.Points ||
			!sameCount(old.RunsPerPoint, rec.RunsPerPoint) || !sameCount(old.SamplesPerRun, rec.SamplesPerRun) {
			return fmt.Errorf("seed %d of %s no longer repeats: earlier run recorded %+v, this run %+v", seed, workload, old, rec)
		}
		rec.RunsPerPoint = max(rec.RunsPerPoint, old.RunsPerPoint)
		rec.SamplesPerRun = max(rec.SamplesPerRun, old.SamplesPerRun)
	}
	all[id] = rec
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// sameCount compares two counts where 0 means "not measured by that
// run".
func sameCount(a, b float64) bool {
	return a <= 0 || b <= 0 || strconv.FormatFloat(a, 'g', -1, 64) == strconv.FormatFloat(b, 'g', -1, 64)
}
