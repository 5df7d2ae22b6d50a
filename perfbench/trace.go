package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the index of the enclosing span,
// or -1 for a root. Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so the same code paths run traced and untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far (0 on a nil tracer),
// bounding the spans of a serial phase for aggregate.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a
// parallel per-point pass) are merged first, so covered time is
// subtracted once.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, in := range iv {
		a, b := max(in[0], lo), min(in[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// agg sums the spans of one name.
type agg struct {
	n     int
	total int64 // summed durations, ns
	self  int64 // summed self times, ns
	durs  []int64
}

// meanUS returns the mean duration in µs without the slowest 1% of the
// spans: a collector pause that lands in a sub-microsecond call would
// otherwise outweigh thousands of calls.
func (a *agg) meanUS() float64 {
	d := slices.Clone(a.durs)
	slices.Sort(d)
	d = d[:len(d)-len(d)/100]
	var sum int64
	for _, x := range d {
		sum += x
	}
	return ratio(float64(sum), float64(len(d))) / 1e3
}

func (a *agg) meanSelfUS() float64 { return ratio(float64(a.self), float64(a.n)) / 1e3 }

func (a *agg) medianUS() float64 {
	v := make([]float64, len(a.durs))
	for i, d := range a.durs {
		v[i] = float64(d) / 1e3
	}
	sort.Float64s(v)
	return median(v)
}

// aggregate groups spans[from:to] by name.
func aggregate(spans []span, self []int64, from, to int) map[string]*agg {
	out := map[string]*agg{}
	for i := from; i < to; i++ {
		s := spans[i]
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
		a.durs = append(a.durs, s.End-s.Start)
	}
	return out
}

// get returns the aggregate for name, empty when no span had it.
func get(m map[string]*agg, name string) *agg {
	if a := m[name]; a != nil {
		return a
	}
	return &agg{}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing %s: %w (close: %v)", path, err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w (close: %v)", path, err, f.Close())
	}
	return f.Close()
}
