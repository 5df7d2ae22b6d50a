// Package parindex maintains incremental Pareto-front indexes over
// streamed measurement points, the serving-side data structure behind
// GET /optimize. Where internal/pareto recomputes fronts from a
// materialized []Point batch, parindex absorbs points one at a time —
// as campaign sinks deliver them — and keeps, per (device, workload)
// key, only the current non-dominated set in one sorted slice. Fronts
// are short: the largest registered one holds 30 entries (hetero,
// N=1024, P=64, of 2145 configurations), p100 at N=10240 holds 3 of
// 110, and haswell 2 to 3 of 258. So Insert is two binary searches plus a
// copy of at most the whole front (each point enters and leaves the
// front at most once), and constraint queries ("cheapest config within
// a time budget", "fastest config within an energy budget") are one
// binary search.
//
// The front invariant: entries are kept sorted by strictly increasing
// time, and along that order energy is strictly decreasing. Any point
// violating that order is dominated and is either rejected on insert or
// evicted when a dominating point arrives. Ties on (time, energy)
// collapse keeping the incumbent, matching the first-encountered
// collapse in pareto.Ranks, so an index fed a campaign's points in
// commit order reproduces pareto.Front of the same batch exactly.
package parindex

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"energyprop/internal/pareto"
)

// Entry is one indexed measurement: a configuration's canonical key and
// display label with its measured time/energy coordinates.
type Entry struct {
	// Config is the canonical configuration key (device.Config.Key()).
	Config string `json:"config"`
	// Label is the human-readable configuration string.
	Label string `json:"label"`
	// Time is the measured execution time in seconds.
	Time float64 `json:"seconds"`
	// Energy is the measured dynamic energy in joules.
	Energy float64 `json:"dyn_energy_j"`
}

// Front is one incrementally-maintained 2-D Pareto front: a slice held
// at strictly increasing Time and strictly decreasing Energy. The zero
// value is an empty front ready for use. Front is not safe for
// concurrent use; Index adds the locking for the serving path.
type Front struct {
	es []Entry
}

// Len returns the number of non-dominated entries currently held.
func (f *Front) Len() int { return len(f.es) }

// within returns how many entries have Time <= t; when positive,
// es[within-1] is the slowest, and so the cheapest, of them.
func (f *Front) within(t float64) int {
	return sort.Search(len(f.es), func(i int) bool { return f.es[i].Time > t })
}

// Insert offers a point to the front. It returns true if the point was
// admitted (it is non-dominated), false if an existing entry dominates
// it. Admitting a point evicts any entries it dominates. An exact
// (time, energy) duplicate keeps the incumbent entry — the same
// first-encountered collapse pareto.Ranks applies — and reports false.
// Coordinates must be comparable numbers (no NaN).
func (f *Front) Insert(e Entry) bool {
	// The slowest entry with Time <= e.Time is also the cheapest such
	// entry, so it alone decides whether e is dominated.
	i := f.within(e.Time)
	if i > 0 && f.es[i-1].Energy <= e.Energy {
		return false
	}
	// e survives. Exactly the entries with Time >= e.Time and
	// Energy >= e.Energy are now dominated, and by the invariant they
	// form one run starting at the first entry with Time >= e.Time.
	lo := sort.Search(i, func(j int) bool { return f.es[j].Time >= e.Time })
	hi := lo
	for hi < len(f.es) && f.es[hi].Energy >= e.Energy {
		hi++
	}
	f.es = slices.Replace(f.es, lo, hi, e)
	return true
}

// Entries returns a copy of the front in increasing-time order.
func (f *Front) Entries() []Entry { return slices.Clone(f.es) }

// Points returns the front as pareto.Points in increasing-time order,
// for handing to the batch analysis helpers (TradeOffs, Hypervolume).
func (f *Front) Points() []pareto.Point {
	out := make([]pareto.Point, len(f.es))
	for i, e := range f.es {
		out[i] = pareto.Point{Label: e.Label, Time: e.Time, Energy: e.Energy}
	}
	return out
}

// Query is one constraint lookup. A field is active when positive;
// at least one must be set.
type Query struct {
	// MaxTime bounds execution time in seconds; the answer is the
	// minimum-energy entry meeting it.
	MaxTime float64
	// MaxEnergy bounds dynamic energy in joules; the answer is the
	// minimum-time entry meeting it.
	MaxEnergy float64
}

// Best answers a constraint query against the front. ok is false when
// no front entry satisfies the constraints.
func (f *Front) Best(q Query) (Entry, bool) {
	if q.MaxTime > 0 {
		// Minimum energy within the time budget is the slowest
		// qualifying entry (energy decreases with time along the front).
		i := f.within(q.MaxTime)
		if i == 0 || (q.MaxEnergy > 0 && f.es[i-1].Energy > q.MaxEnergy) {
			return Entry{}, false
		}
		return f.es[i-1], true
	}
	if q.MaxEnergy > 0 {
		// The entries within the energy budget are a suffix of the
		// front; its first is the fastest.
		i := sort.Search(len(f.es), func(i int) bool { return f.es[i].Energy <= q.MaxEnergy })
		if i == len(f.es) {
			return Entry{}, false
		}
		return f.es[i], true
	}
	return Entry{}, false
}

// Fastest returns the front's first entry: the minimum time, which by
// the front invariant is also the lower energy of any time tie. ok is
// false when the front is empty.
func (f *Front) Fastest() (Entry, bool) {
	if len(f.es) == 0 {
		return Entry{}, false
	}
	return f.es[0], true
}

// Key addresses one front in an Index: a device's registry name plus
// the normalized workload identity.
type Key struct {
	Device   string `json:"device"`
	App      string `json:"app"`
	N        int    `json:"n"`
	Products int    `json:"products"`
}

// Stats is a point-in-time snapshot of an Index's counters.
type Stats struct {
	// Fronts is the number of (device, workload) keys indexed.
	Fronts int `json:"fronts"`
	// Entries is the total number of front entries across keys.
	Entries int `json:"entries"`
	// Inserts counts offered points; Admitted counts those that
	// entered a front (the rest were dominated or duplicates).
	Inserts  uint64 `json:"inserts"`
	Admitted uint64 `json:"admitted"`
	// Queries counts Best lookups; Hits counts those that returned an
	// entry.
	Queries uint64 `json:"queries"`
	Hits    uint64 `json:"hits"`
}

// Index is the per-process collection of fronts, keyed by
// (device, workload), safe for concurrent insert and query. Reads take
// an RLock so concurrent /optimize traffic never serializes; inserts
// are brief exclusive sections.
type Index struct {
	mu     sync.RWMutex
	fronts map[Key]*Front

	inserts, admitted uint64 // guarded by mu (writes hold the exclusive lock)
	queries, hits     atomic.Uint64
}

// NewIndex builds an empty index.
func NewIndex() *Index {
	return &Index{fronts: map[Key]*Front{}}
}

// Insert offers a point to the front for key, creating the front on
// first use. It reports whether the point was admitted.
func (x *Index) Insert(k Key, e Entry) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	f, ok := x.fronts[k]
	if !ok {
		f = &Front{}
		x.fronts[k] = f
	}
	x.inserts++
	admitted := f.Insert(e)
	if admitted {
		x.admitted++
	}
	return admitted
}

// Best answers a constraint query against key's front. frontSize is the
// number of entries the front holds — zero means the key has never
// received a point (uncovered), which callers distinguish from a
// covered front where no entry satisfies the constraints (infeasible).
func (x *Index) Best(k Key, q Query) (e Entry, frontSize int, ok bool) {
	x.queries.Add(1)
	x.mu.RLock()
	f := x.fronts[k]
	if f == nil {
		x.mu.RUnlock()
		return Entry{}, 0, false
	}
	e, ok = f.Best(q)
	frontSize = f.Len()
	x.mu.RUnlock()
	if ok {
		x.hits.Add(1)
	}
	return e, frontSize, ok
}

// Entries returns the front for key in increasing-time order, or nil
// when the key is uncovered.
func (x *Index) Entries(k Key) []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	f := x.fronts[k]
	if f == nil {
		return nil
	}
	return f.Entries()
}

// Keys returns the indexed keys in deterministic (sorted) order.
func (x *Index) Keys() []Key {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]Key, 0, len(x.fronts))
	for k := range x.fronts {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.Products < b.Products
	})
	return out
}

// Stats returns a snapshot of the index counters.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s := Stats{
		Fronts:   len(x.fronts),
		Inserts:  x.inserts,
		Admitted: x.admitted,
		Queries:  x.queries.Load(),
		Hits:     x.hits.Load(),
	}
	for _, f := range x.fronts {
		s.Entries += f.Len()
	}
	return s
}
