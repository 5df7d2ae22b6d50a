package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// testEnv builds a workload's generation environment without a server:
// warm-query-mix gets stand-in pre-fill replies and /optimize tables,
// which the generator only selects among.
func testEnv(t *testing.T, w *workload, seed int64) *env {
	t.Helper()
	e, err := newEnv(w)
	if err != nil {
		t.Fatal(err)
	}
	if w.prefill {
		for i, k := range w.keys {
			for s := range prefillSeedsPerKey {
				e.prefill = append(e.prefill, prefilled{key: k, seed: seed*100 + int64(i*prefillSeedsPerKey+s), body: []byte("{}")})
			}
			qs := make([]request, 4)
			for j := range qs {
				qs[j] = optimize(k, float64(j+1), 0)
			}
			e.queries = append(e.queries, qs)
		}
	}
	return e
}

// sequence renders the first n requests of one client.
func sequence(t *testing.T, w *workload, seed int64, client, n int) []string {
	t.Helper()
	g := newGenerator(w, testEnv(t, w, seed), seed, client)
	out := make([]string, n)
	for i := range out {
		r := g.next()
		out[i] = fmt.Sprintf("%s %s %s", r.ep, r.path, r.body)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := sequence(t, w, 7, 0, 200)
			b := sequence(t, w, 7, 0, 200)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("request %d differs under one seed:\n%s\n%s", i, a[i], b[i])
				}
			}
			for _, other := range [][]string{sequence(t, w, 8, 0, 200), sequence(t, w, 7, 1, 200)} {
				same := 0
				for i := range a {
					if a[i] == other[i] {
						same++
					}
				}
				if same == len(a) {
					t.Fatal("another seed or client produced the identical sequence")
				}
			}
		})
	}
}

func TestWarmMixProportions(t *testing.T) {
	w, err := lookupWorkload("warm-query-mix")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w, testEnv(t, w, 3), 3, 0)
	counts := map[string]int{}
	for range 20 * 50 {
		r := g.next()
		kind := r.ep.String()
		if r.ep == epSweep {
			kind = "sweep-replay"
		}
		if r.ep == epMeasure && r.key == freshMeasureKey {
			kind = "measure-fresh"
		}
		counts[kind]++
	}
	want := map[string]int{"optimize": 500, "sweep-replay": 300, "measure": 150, "measure-fresh": 50}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s: %d of 1000 requests, want %d (all counts %v)", k, counts[k], n, counts)
		}
	}
}

func TestTailOf(t *testing.T) {
	cases := []struct {
		n, bp, beyond int
		ok            bool
	}{
		{n: 1000, bp: 9900, beyond: 10, ok: true},
		{n: 999, bp: 9800, beyond: 19, ok: true},
		{n: 500, bp: 9800, beyond: 10, ok: true},
		{n: 10000, bp: 9990, beyond: 10, ok: true},
		{n: 100, bp: 9000, beyond: 10, ok: true},
		{n: 20, bp: 5000, beyond: 10, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		got, ok := tailOf(sorted, 10)
		if ok != c.ok {
			t.Errorf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.BP != c.bp || got.Beyond != c.beyond || int(got.Value) != c.n-c.beyond {
			t.Errorf("n=%d: got %+v, want p%d with %d beyond at %d", c.n, got, c.bp, c.beyond, c.n-c.beyond)
		}
		// The next ladder percentile up must have fewer than ten beyond.
		for i, bp := range tailLadder {
			if bp == got.BP && i > 0 {
				if up := c.n - rank(tailLadder[i-1], c.n); up >= 10 {
					t.Errorf("n=%d: p%d has %d beyond, so it should have been chosen", c.n, tailLadder[i-1], up)
				}
			}
		}
	}
}

func TestSelfTimeSubtractsOverlapOnce(t *testing.T) {
	spans := []span{
		{Name: "sweep", Parent: -1, Start: 0, End: 100},
		{Name: "point", Parent: 0, Start: 10, End: 50},
		{Name: "point", Parent: 0, Start: 30, End: 70},  // overlaps the first point
		{Name: "point", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "run", Parent: 1, Start: 15, End: 45},    // grandchild: not the sweep's child
		{Name: "other", Parent: -1, Start: 0, End: 100},
	}
	self := selfTimes(spans)
	want := []int64{100 - 60 - 10, 40 - 30, 40, 30, 30, 100}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	if got := covered([][2]int64{{0, 10}, {10, 20}, {5, 15}}, 0, 100); got != 20 {
		t.Errorf("touching intervals cover %d, want 20", got)
	}
}

func TestSeedRecordMustRepeat(t *testing.T) {
	dir := t.TempDir()
	rec := seedRecord{Digest: "abc", Points: 10}
	if err := checkSeedRecord(dir, "w", 1, rec); err != nil {
		t.Fatal(err)
	}
	rec.RunsPerPoint = 3 // a traced run adds counts the first run lacked
	if err := checkSeedRecord(dir, "w", 1, rec); err != nil {
		t.Fatal(err)
	}
	if err := checkSeedRecord(dir, "w", 2, seedRecord{Digest: "def", Points: 10}); err != nil {
		t.Fatalf("another seed is a new record: %v", err)
	}
	for _, bad := range []seedRecord{
		{Digest: "abd", Points: 10},
		{Digest: "abc", Points: 11},
		{Digest: "abc", Points: 10, RunsPerPoint: 3.5},
	} {
		if err := checkSeedRecord(dir, "w", 1, bad); err == nil {
			t.Errorf("%+v accepted against the recorded seed", bad)
		}
	}
}

func TestBruteBestMatchesConstraintSemantics(t *testing.T) {
	w, err := lookupWorkload("warm-query-mix")
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv(t, w, 1)
	// A three-point front: faster costs more energy.
	e.prefill = []prefilled{{key: warmKeys[0], seed: 1, body: []byte(
		`{"version":1,"device":"d","kind":"gpu","workload":{"app":"dgemm","N":8192,"Products":8},"results":[` +
			`{"config":"a","label":"A","seconds":1,"dyn_power_w":30,"dyn_energy_j":30},` +
			`{"config":"b","label":"B","seconds":2,"dyn_power_w":10,"dyn_energy_j":20},` +
			`{"config":"c","label":"C","seconds":4,"dyn_power_w":2.5,"dyn_energy_j":10},` +
			`{"config":"d","label":"D","seconds":5,"dyn_power_w":4,"dyn_energy_j":20}]}`)}}
	for _, k := range warmKeys[1:] {
		e.prefill = append(e.prefill, prefilled{key: k, seed: 1, body: e.prefill[0].body})
	}
	if err := e.buildQueries(1); err != nil {
		t.Fatal(err)
	}
	for _, q := range e.queries[0] {
		var want string
		switch {
		case q.maxTime > 0 && q.maxTime < 2:
			want = `"config":"a"`
		case q.maxTime > 0 && q.maxTime < 4:
			want = `"config":"b"`
		case q.maxTime > 0:
			want = `"config":"c"`
		case q.maxEnergy < 20:
			want = `"config":"c"`
		case q.maxEnergy < 30:
			want = `"config":"b"`
		default:
			want = `"config":"a"`
		}
		if !bytes.Contains(q.expect, []byte(want)) || !bytes.Contains(q.expect, []byte(`"front_size":3`)) {
			t.Errorf("%s: oracle reply %s, want %s on a front of 3", q.path, q.expect, want)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json, which names
// the metrics for the tools that run the benchmark, in step with what
// the command reports.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{b.EndToEnd, endToEndMetrics}, {b.PerLayer, perLayerMetrics}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics where the command reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the command %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestMeanDropsSlowestPercent(t *testing.T) {
	a := &agg{}
	for i := range 200 {
		d := int64(1000)
		if i == 7 || i == 150 {
			d = 1e9 // two pauses in 200 calls: the slowest 1%
		}
		a.durs = append(a.durs, d)
		a.n++
		a.total += d
	}
	if got := a.meanUS(); got != 1 {
		t.Errorf("mean %v µs, want 1", got)
	}
}
