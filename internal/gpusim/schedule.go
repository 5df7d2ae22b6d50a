package gpusim

import (
	"fmt"
	"math"
	"sync"

	"energyprop/internal/meter"
)

// Block scheduler: where matmul.go's analytic model gives each
// configuration a single (time, power) pair, this layer schedules the
// kernel's thread blocks onto the device's SM slots over time and emits a
// *time-varying* power trace — ramp-up while the first wave fills, full
// power in steady state, and a decaying tail as the last wave drains. The
// analytic model remains the source of per-block duration and
// steady-state power; the scheduler adds the temporal structure a real
// WattsUp trace shows.
//
// Because every block of one kernel has the same modeled duration, the
// greedy earliest-slot-first schedule has a closed form: slot i starts at
// its fill-stagger offset and processes its share back to back, so
// occupancy is +1 at each slot's start and −1 at its drain time.
//
// The start times are non-decreasing in i (IEEE multiply and divide by
// non-negative constants are monotone), so only the drain times need
// sorting, and the trace is a merge of two ordered streams. The grouping
// step reads nothing but the merged times and integer occupancy sums, so
// neither the sort algorithm nor the order of equal times can change a
// bit of the trace.

// TracePoint is one step of a piecewise-constant power trace.
type TracePoint struct {
	// Seconds is the step's start offset from kernel launch.
	Seconds float64
	// ActiveSlots is the number of occupied block slots device-wide.
	ActiveSlots int
	// PowerW is the dynamic power during the step.
	PowerW float64
}

// TracedResult is a scheduled execution: the analytic result plus the
// power trace the scheduler produced.
type TracedResult struct {
	*Result
	// Trace is the piecewise-constant dynamic power profile.
	Trace []TracePoint
	// TraceSeconds is the scheduled makespan (it can differ slightly from
	// the analytic Seconds because of wave quantization and the fill
	// stagger).
	TraceSeconds float64
	// TraceEnergyJ integrates the trace.
	TraceEnergyJ float64
}

// RunMatMulTraced executes the workload through the block scheduler.
func (d *Device) RunMatMulTraced(w MatMulWorkload, c MatMulConfig) (*TracedResult, error) {
	r, err := d.RunMatMul(w, c)
	if err != nil {
		return nil, err
	}
	p := r.Profile
	slots := d.Spec.SMs * p.BlocksPerSM
	if slots < 1 {
		return nil, fmt.Errorf("gpusim: no block slots")
	}
	totalBlocks := p.Blocks * w.Products
	kernelSeconds := r.Seconds - d.cal.launchOverheadS
	if kernelSeconds <= 0 {
		return nil, fmt.Errorf("gpusim: degenerate kernel time")
	}
	// Per-block duration: in steady state `slots` blocks complete every
	// blockDur, reproducing the analytic throughput.
	blockDur := kernelSeconds * float64(slots) / float64(totalBlocks)

	// Distribute blocks to slots: earliest-filled slots take the extras.
	active := slots
	if active > totalBlocks {
		active = totalBlocks
	}
	base := totalBlocks / active
	extra := totalBlocks % active
	fillWindow := math.Min(float64(active)*2e-6, 0.05*kernelSeconds)

	s := schedulePool.Get().(*scheduleScratch)
	s.reserve(active)
	for i := 0; i < active; i++ {
		start := fillWindow * float64(i) / float64(active)
		count := base
		if i < extra {
			count++
		}
		// Slots do not drain in lockstep on real hardware: memory and
		// scheduler contention make per-slot progress differ by a couple
		// of percent, which is what gives the power tail its width.
		jitter := 1 + 0.02*math.Sin(float64(i)*2.399)
		s.drains[i] = start + float64(count)*blockDur*jitter
	}

	// Convert occupancy edges into a compact power trace (merge steps
	// closer than makespan/512 to bound the trace size); only the
	// exact-size copy escapes the pooled scratch.
	duty := d.fetchEngineDuty(w.N, c.G)
	fetchW := d.Spec.FetchEnginePowerW * duty
	coreW := r.DynPowerW - d.Spec.BasePowerW - fetchW
	if coreW < 0 {
		coreW = 0
	}
	steps, makespan := s.occupancy(fillWindow, slots, d.Spec.BasePowerW, fetchW, coreW)
	trace := make([]TracePoint, len(steps))
	copy(trace, steps)
	schedulePool.Put(s)

	// Integrate the trace.
	energy := 0.0
	for i := 0; i < len(trace); i++ {
		end := makespan
		if i+1 < len(trace) {
			end = trace[i+1].Seconds
		}
		energy += trace[i].PowerW * (end - trace[i].Seconds)
	}
	return &TracedResult{
		Result:       r,
		Trace:        trace,
		TraceSeconds: makespan,
		TraceEnergyJ: energy,
	}, nil
}

// Run adapts the traced result to a meter.Run with the real temporal
// profile (ramp, steady state, tail), so the WattsUp pipeline sees what a
// physical meter would.
func (tr *TracedResult) Run(idlePowerW float64) meter.Run {
	seg := &meter.SegmentRun{}
	for i := 0; i < len(tr.Trace); i++ {
		end := tr.TraceSeconds
		if i+1 < len(tr.Trace) {
			end = tr.Trace[i+1].Seconds
		}
		seg.AddSegment(end-tr.Trace[i].Seconds, idlePowerW+tr.Trace[i].PowerW)
	}
	return seg
}

// scheduleScratch is one traced run's working set: the per-slot drain
// times, the bucket sort's output and counts, and the trace under
// construction. Only the trace escapes, as a fresh exact-size copy, so
// the rest is pooled across runs.
type scheduleScratch struct {
	drains []float64
	sorted []float64
	counts []int
	steps  []TracePoint
}

var schedulePool = sync.Pool{New: func() any { return new(scheduleScratch) }}

// reserve sizes the scratch for a schedule over active slots. A trace
// has at most one step per edge, so 2·active steps always suffice.
func (s *scheduleScratch) reserve(active int) {
	if cap(s.drains) < active {
		times := make([]float64, 2*active)
		s.drains, s.sorted = times[:active:active], times[active:]
		s.counts = make([]int, active+1)
		s.steps = make([]TracePoint, 2*active)
	}
	s.drains = s.drains[:active]
	s.sorted = s.sorted[:active]
	s.counts = s.counts[:active+1]
	s.steps = s.steps[:2*active]
}

// occupancy sorts the drain times and merges them with the in-order
// slot starts into power steps, grouping edges closer than makespan/512.
// It returns the steps (backed by the scratch; the caller copies them
// out) and the makespan, which is the last drain: every drain is later
// than its own slot's start.
//
//lint:root hotalloc runs once per traced configuration on every cold GPU sweep point; the scratch is pooled and pre-sized
func (s *scheduleScratch) occupancy(fillWindow float64, slots int, baseW, fetchW, coreW float64) ([]TracePoint, float64) {
	active := len(s.drains)
	bucketSort(s.sorted, s.drains, s.counts)
	makespan := s.sorted[active-1]
	minStep := makespan / 512

	n, occ := 0, 0
	si, di := 0, 0
	start := fillWindow * float64(si) / float64(active)
	for si < active || di < active {
		t := start
		if si == active || (di < active && s.sorted[di] < t) {
			t = s.sorted[di]
		}
		limit := t + minStep
		for si < active && start <= limit {
			occ++
			si++
			start = fillWindow * float64(si) / float64(active)
		}
		for di < active && s.sorted[di] <= limit {
			occ--
			di++
		}
		frac := float64(occ) / float64(slots)
		if frac > 1 {
			frac = 1
		}
		s.steps[n] = TracePoint{
			Seconds:     t,
			ActiveSlots: occ,
			PowerW:      baseW + fetchW + coreW*frac,
		}
		n++
	}
	return s.steps[:n], makespan
}

// bucketSort writes src into dst in ascending order in expected O(n)
// time, using counts (len(src)+1 entries) as scratch. The bucket index
// int((x-lo)·(n-1)/(hi-lo)) is monotone in x, so every inversion left
// after the counting scatter lies inside one bucket and a single
// insertion pass finishes the sort. NaN-free float64 values have exactly
// one ascending order, so the output equals any other correct sort's.
func bucketSort(dst, src []float64, counts []int) {
	n := len(src)
	if n == 0 {
		return
	}
	lo, hi := src[0], src[0]
	for _, x := range src[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	span := hi - lo
	scale := float64(n-1) / span
	if !(span > 0 && span <= math.MaxFloat64 && scale <= math.MaxFloat64) {
		// All equal (already sorted), or a range too wide or too narrow
		// to bucket: insertion sort alone is still correct.
		copy(dst, src)
		insertionSort(dst)
		return
	}
	clear(counts)
	for _, x := range src {
		counts[bucketOf(x, lo, scale, n)+1]++
	}
	for b := 1; b < n; b++ {
		counts[b] += counts[b-1]
	}
	for _, x := range src {
		b := bucketOf(x, lo, scale, n)
		dst[counts[b]] = x
		counts[b]++
	}
	insertionSort(dst)
}

// bucketOf maps x ∈ [lo, hi] to one of n buckets, monotonically. The
// clamp absorbs the last-ulp rounding of (hi-lo)·scale above n-1.
func bucketOf(x, lo, scale float64, n int) int {
	return min(int((x-lo)*scale), n-1)
}

// insertionSort sorts xs ascending in place.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for j > 0 && xs[j-1] > x {
			xs[j] = xs[j-1]
			j--
		}
		xs[j] = x
	}
}
