package parindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"energyprop/internal/pareto"
)

// entriesOf converts a point slice for feeding the incremental front.
func entriesOf(pts []pareto.Point) []Entry {
	out := make([]Entry, len(pts))
	for i, p := range pts {
		out[i] = Entry{Config: p.Label, Label: p.Label, Time: p.Time, Energy: p.Energy}
	}
	return out
}

// frontOf runs the batch reference implementation and converts.
func frontOf(pts []pareto.Point) []Entry {
	return entriesOf(pareto.Front(pts))
}

// feed inserts every point in order and returns the resulting entries.
func feed(pts []pareto.Point) []Entry {
	var f Front
	for _, e := range entriesOf(pts) {
		f.Insert(e)
	}
	return f.Entries()
}

func randomPoints(rng *rand.Rand, n, grid int) []pareto.Point {
	pts := make([]pareto.Point, n)
	for i := range pts {
		t := float64(1+rng.Intn(grid)) / 4
		e := float64(1+rng.Intn(grid)) * 2
		pts[i] = pareto.Point{Label: fmt.Sprintf("p%d", i), Time: t, Energy: e}
	}
	return pts
}

// TestFrontMatchesBatchFront is the core property: for a random point
// set fed in a random order, the incremental front equals batch
// pareto.Front over the same sequence — including which representative
// survives a duplicate collapse (first encountered).
func TestFrontMatchesBatchFront(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		grid := 1 + rng.Intn(12) // small grid forces duplicates and ties
		pts := randomPoints(rng, n, grid)
		got, want := feed(pts), frontOf(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: incremental front diverged\n got: %v\nwant: %v\npoints: %v", trial, got, want, pts)
		}
	}
}

// TestFrontSetInvariantUnderShuffles checks that the surviving
// coordinate set (ignoring duplicate-tie labels) is order-independent:
// every shuffle of the same multiset yields the same front coordinates.
func TestFrontSetInvariantUnderShuffles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		pts := randomPoints(rng, 40, 10)
		ref := feed(pts)
		coords := func(es []Entry) [][2]float64 {
			out := make([][2]float64, len(es))
			for i, e := range es {
				out[i] = [2]float64{e.Time, e.Energy}
			}
			return out
		}
		want := coords(ref)
		for s := 0; s < 5; s++ {
			shuffled := append([]pareto.Point(nil), pts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := coords(feed(shuffled)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shuffle %d: front coordinates depend on order\n got %v\nwant %v", trial, s, got, want)
			}
			// The shuffled feed must also match the batch front of the
			// shuffled sequence exactly, labels included.
			if got, want := feed(shuffled), frontOf(shuffled); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shuffle %d: diverged from batch front", trial, s)
			}
		}
	}
}

// TestFrontInvariant checks the structural invariant after arbitrary
// inserts: time strictly increasing, energy strictly decreasing.
func TestFrontInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var f Front
	for i := 0; i < 2000; i++ {
		f.Insert(Entry{
			Config: fmt.Sprintf("c%d", i),
			Time:   float64(1+rng.Intn(200)) / 8,
			Energy: float64(1 + rng.Intn(200)),
		})
	}
	es := f.Entries()
	if len(es) != f.Len() {
		t.Fatalf("Len()=%d but Entries() has %d", f.Len(), len(es))
	}
	for i := 1; i < len(es); i++ {
		if !(es[i].Time > es[i-1].Time && es[i].Energy < es[i-1].Energy) {
			t.Fatalf("invariant violated at %d: %v -> %v", i, es[i-1], es[i])
		}
	}
}

// TestInsertReturnValue feeds one front a sequence of points and checks
// each insert's verdict and the front it leaves behind.
func TestInsertReturnValue(t *testing.T) {
	var f Front
	for i, tc := range []struct {
		e     Entry
		want  bool
		front []string // configs held after the insert, fastest first
	}{
		{Entry{Config: "a", Time: 2, Energy: 10}, true, []string{"a"}},
		{Entry{Config: "b", Time: 3, Energy: 10}, false, []string{"a"}},     // dominated
		{Entry{Config: "dup", Time: 2, Energy: 10}, false, []string{"a"}},   // exact duplicate keeps the incumbent
		{Entry{Config: "hot", Time: 2, Energy: 12}, false, []string{"a"}},   // time tie, higher energy
		{Entry{Config: "cool", Time: 2, Energy: 8}, true, []string{"cool"}}, // time tie, lower energy replaces
		{Entry{Config: "slow", Time: 4, Energy: 3}, true, []string{"cool", "slow"}},
		{Entry{Config: "c", Time: 1, Energy: 5}, true, []string{"c", "slow"}}, // dominating point evicts
	} {
		if got := f.Insert(tc.e); got != tc.want {
			t.Fatalf("step %d: Insert(%+v) = %v want %v", i, tc.e, got, tc.want)
		}
		var got []string
		for _, e := range f.Entries() {
			got = append(got, e.Config)
		}
		if !reflect.DeepEqual(got, tc.front) || f.Len() != len(tc.front) {
			t.Fatalf("step %d: front %v (Len %d) want %v", i, got, f.Len(), tc.front)
		}
	}
}

// TestEntriesIsACopy: writing to the slice Entries returns must not
// reach the front.
func TestEntriesIsACopy(t *testing.T) {
	want := []Entry{{Config: "a", Time: 1, Energy: 10}, {Config: "b", Time: 2, Energy: 5}}
	var f Front
	for _, e := range want {
		f.Insert(e)
	}
	es := f.Entries()
	for i := range es {
		es[i] = Entry{Config: "x", Time: 100, Energy: 100}
	}
	if got := f.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries() after mutating a copy = %v want %v", got, want)
	}
	if e, ok := f.Best(Query{MaxTime: 1.5}); !ok || e.Config != "a" {
		t.Fatalf("Best after mutating a copy = %+v,%v want a", e, ok)
	}
	if f.Len() != 2 {
		t.Fatalf("Len() after mutating a copy = %d want 2", f.Len())
	}
}

func TestBestQueries(t *testing.T) {
	var f Front
	// Classic staircase: (1, 100) (2, 60) (4, 30) (8, 10).
	for i, p := range [][2]float64{{1, 100}, {2, 60}, {4, 30}, {8, 10}} {
		f.Insert(Entry{Config: fmt.Sprintf("c%d", i), Time: p[0], Energy: p[1]})
	}
	cases := []struct {
		q      Query
		want   string
		wantOK bool
	}{
		{Query{MaxTime: 3}, "c1", true},    // min energy with t<=3
		{Query{MaxTime: 2}, "c1", true},    // boundary inclusive
		{Query{MaxTime: 0.5}, "", false},   // infeasible
		{Query{MaxEnergy: 35}, "c2", true}, // min time with E<=35
		{Query{MaxEnergy: 10}, "c3", true}, // boundary inclusive
		{Query{MaxEnergy: 5}, "", false},   // infeasible
		{Query{MaxTime: 5, MaxEnergy: 40}, "c2", true},
		{Query{MaxTime: 5, MaxEnergy: 20}, "", false}, // floor too hot
		{Query{}, "", false},                          // no constraint
	}
	for _, tc := range cases {
		e, ok := f.Best(tc.q)
		if ok != tc.wantOK || (ok && e.Config != tc.want) {
			t.Errorf("Best(%+v) = %q,%v want %q,%v", tc.q, e.Config, ok, tc.want, tc.wantOK)
		}
	}
}

// scanBest is the brute-force reference for Front.Best: apply both
// filters, then minimize energy under a time bound and time otherwise.
func scanBest(es []Entry, q Query) (Entry, bool) {
	var want Entry
	wantOK := false
	if q.MaxTime <= 0 && q.MaxEnergy <= 0 {
		return want, false
	}
	for _, e := range es {
		if q.MaxTime > 0 && e.Time > q.MaxTime {
			continue
		}
		if q.MaxEnergy > 0 && e.Energy > q.MaxEnergy {
			continue
		}
		better := !wantOK
		if wantOK {
			if q.MaxTime > 0 {
				better = e.Energy < want.Energy
			} else {
				better = e.Time < want.Time
			}
		}
		if better {
			want, wantOK = e, true
		}
	}
	return want, wantOK
}

// TestBestAgainstLinearScan cross-checks the binary searches against a
// brute-force scan on random fronts and random constraints. Each trial
// also feeds a random subset of the front into a fresh Front — the
// shape of the /optimize policy filter's input — and checks that every
// subset entry is admitted and answers the same queries as the scan.
func TestBestAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		var f Front
		for i := 0; i < 1+rng.Intn(50); i++ {
			f.Insert(Entry{
				Config: fmt.Sprintf("c%d", i),
				Time:   float64(1+rng.Intn(100)) / 4,
				Energy: float64(1 + rng.Intn(100)),
			})
		}
		es := f.Entries()
		var sub Front
		var subset []Entry
		for _, e := range es {
			if rng.Intn(2) == 0 {
				sub.Insert(e)
				subset = append(subset, e)
			}
		}
		if got := sub.Entries(); len(got) != len(subset) || (len(subset) > 0 && !reflect.DeepEqual(got, subset)) {
			t.Fatalf("trial %d: subset front %v, want every subset entry %v", trial, got, subset)
		}
		for q := 0; q < 20; q++ {
			query := Query{}
			if rng.Intn(2) == 0 {
				query.MaxTime = float64(rng.Intn(120)) / 4
			}
			if query.MaxTime == 0 || rng.Intn(2) == 0 {
				query.MaxEnergy = float64(rng.Intn(120))
			}
			want, wantOK := scanBest(es, query)
			if got, ok := f.Best(query); ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d: Best(%+v) = %+v,%v want %+v,%v\nfront: %v", trial, query, got, ok, want, wantOK, es)
			}
			want, wantOK = scanBest(subset, query)
			if got, ok := sub.Best(query); ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d: subset Best(%+v) = %+v,%v want %+v,%v\nsubset: %v", trial, query, got, ok, want, wantOK, subset)
			}
		}
	}
}

// TestFastest: the leftmost entry is the minimum time, a time tie keeps
// the lower energy, and an empty front has none.
func TestFastest(t *testing.T) {
	var f Front
	if _, ok := f.Fastest(); ok {
		t.Fatal("empty front reported a fastest entry")
	}
	for _, e := range []Entry{
		{Config: "slow", Time: 4, Energy: 10},
		{Config: "hot", Time: 2, Energy: 50},
		{Config: "tie", Time: 2, Energy: 30},
		{Config: "dup", Time: 2, Energy: 30},
	} {
		f.Insert(e)
	}
	if e, ok := f.Fastest(); !ok || e.Config != "tie" {
		t.Fatalf("Fastest() = %+v,%v want the cheaper time tie", e, ok)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		pts := randomPoints(rng, 1+rng.Intn(40), 1+rng.Intn(12))
		var g Front
		for _, e := range entriesOf(pts) {
			g.Insert(e)
		}
		got, ok := g.Fastest()
		if want := frontOf(pts)[0]; !ok || got != want {
			t.Fatalf("trial %d: Fastest() = %+v,%v want %+v", trial, got, ok, want)
		}
	}
}

func TestIndexKeysAndStats(t *testing.T) {
	x := NewIndex()
	k1 := Key{Device: "p100", App: "dgemm", N: 1024, Products: 1}
	k2 := Key{Device: "haswell", App: "dgemm", N: 96, Products: 1}
	x.Insert(k1, Entry{Config: "a", Time: 1, Energy: 10})
	x.Insert(k1, Entry{Config: "b", Time: 2, Energy: 20}) // dominated
	x.Insert(k2, Entry{Config: "c", Time: 1, Energy: 1})

	if _, n, ok := x.Best(k1, Query{MaxTime: 5}); !ok || n != 1 {
		t.Fatalf("Best(k1) = ok=%v front=%d", ok, n)
	}
	if _, n, ok := x.Best(Key{Device: "nope"}, Query{MaxTime: 5}); ok || n != 0 {
		t.Fatalf("uncovered key: ok=%v front=%d", ok, n)
	}
	if _, n, ok := x.Best(k1, Query{MaxEnergy: 0.5}); ok || n != 1 {
		t.Fatalf("infeasible on covered key: ok=%v front=%d", ok, n)
	}

	keys := x.Keys()
	want := []Key{k2, k1} // sorted by device name
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Keys() = %v want %v", keys, want)
	}

	s := x.Stats()
	if s.Fronts != 2 || s.Entries != 2 || s.Inserts != 3 || s.Admitted != 2 || s.Queries != 3 || s.Hits != 1 {
		t.Fatalf("Stats() = %+v", s)
	}
}

// TestIndexConcurrency hammers the index from concurrent inserters and
// queriers; correctness is checked by the race detector plus a final
// front-invariant sweep.
func TestIndexConcurrency(t *testing.T) {
	x := NewIndex()
	k := Key{Device: "p100", App: "dgemm", N: 512, Products: 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					x.Insert(k, Entry{
						Config: fmt.Sprintf("g%d-%d", g, i),
						Time:   float64(1+rng.Intn(64)) / 2,
						Energy: float64(1 + rng.Intn(64)),
					})
				} else {
					x.Best(k, Query{MaxTime: float64(1 + rng.Intn(40))})
					x.Entries(k)
				}
			}
		}(g)
	}
	wg.Wait()
	es := x.Entries(k)
	for i := 1; i < len(es); i++ {
		if !(es[i].Time > es[i-1].Time && es[i].Energy < es[i-1].Energy) {
			t.Fatalf("invariant violated after concurrent load at %d: %v -> %v", i, es[i-1], es[i])
		}
	}
}

func BenchmarkFrontInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	entries := make([]Entry, 4096)
	for i := range entries {
		entries[i] = Entry{
			Config: fmt.Sprintf("c%d", i),
			Time:   float64(1+rng.Intn(1<<20)) / 1024,
			Energy: float64(1 + rng.Intn(1<<20)),
		}
	}
	b.ResetTimer()
	var f Front
	for i := 0; i < b.N; i++ {
		f.Insert(entries[i%len(entries)])
	}
}
