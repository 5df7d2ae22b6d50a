package gpusim

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"energyprop/internal/meter"
)

func TestTracedMatchesAnalyticTotals(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	for _, c := range []MatMulConfig{
		{BS: 32, G: 1, R: 8}, {BS: 16, G: 2, R: 4}, {BS: 4, G: 1, R: 8},
	} {
		tr, err := d.RunMatMulTraced(w, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		// Makespan within a few percent of the analytic kernel time.
		rel := tr.TraceSeconds / tr.Seconds
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("%v: makespan %.4fs vs analytic %.4fs", c, tr.TraceSeconds, tr.Seconds)
		}
		// Trace energy within a few percent of the analytic energy (the
		// ramp and tail shave a little off the constant-power product).
		relE := tr.TraceEnergyJ / tr.DynEnergyJ
		if relE < 0.85 || relE > 1.05 {
			t.Errorf("%v: trace energy %.1fJ vs analytic %.1fJ", c, tr.TraceEnergyJ, tr.DynEnergyJ)
		}
	}
}

func TestTracedStructure(t *testing.T) {
	d := NewK40c()
	tr, err := d.RunMatMulTraced(MatMulWorkload{N: 8192, Products: 4}, MatMulConfig{BS: 32, G: 1, R: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace) < 3 {
		t.Fatalf("trace has %d steps, want ramp/steady/tail structure", len(tr.Trace))
	}
	if len(tr.Trace) > 2048 {
		t.Errorf("trace has %d steps, want compaction to <= ~1024", len(tr.Trace))
	}
	// Monotone time.
	maxOcc, peakPower := 0, 0.0
	for i, tp := range tr.Trace {
		if i > 0 && tp.Seconds < tr.Trace[i-1].Seconds {
			t.Fatal("trace times must be non-decreasing")
		}
		if tp.ActiveSlots < 0 {
			t.Fatal("negative occupancy")
		}
		if tp.ActiveSlots > maxOcc {
			maxOcc = tp.ActiveSlots
		}
		if tp.PowerW > peakPower {
			peakPower = tp.PowerW
		}
	}
	slots := d.Spec.SMs * tr.Profile.BlocksPerSM
	if maxOcc != slots {
		t.Errorf("peak occupancy %d, want full %d slots", maxOcc, slots)
	}
	// The tail must decay: final step strictly below peak power.
	last := tr.Trace[len(tr.Trace)-1]
	if last.PowerW >= peakPower {
		t.Error("trace should end in a drained (low-power) tail")
	}
	if math.Abs(peakPower-tr.DynPowerW) > 0.02*tr.DynPowerW {
		t.Errorf("steady-state trace power %.1f vs analytic %.1f", peakPower, tr.DynPowerW)
	}
}

func TestTracedTinyGrid(t *testing.T) {
	// Fewer blocks than slots: occupancy never reaches the slot count and
	// the kernel is one partial wave.
	d := NewP100()
	tr, err := d.RunMatMulTraced(MatMulWorkload{N: 64, Products: 1}, MatMulConfig{BS: 32, G: 1, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	slots := d.Spec.SMs * tr.Profile.BlocksPerSM
	for _, tp := range tr.Trace {
		if tp.ActiveSlots > slots {
			t.Fatal("occupancy exceeds slots")
		}
	}
	if tr.Trace[0].ActiveSlots <= 0 {
		t.Error("first step should have active blocks")
	}
}

func TestTracedMeterPipeline(t *testing.T) {
	// End to end: metering the traced run reproduces the trace energy.
	d := NewP100()
	tr, err := d.RunMatMulTraced(MatMulWorkload{N: 8192, Products: 8}, MatMulConfig{BS: 24, G: 1, R: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NewMeter(d.Spec.IdlePowerW, 1)
	m.NoiseFrac = 0
	m.SampleInterval = tr.TraceSeconds / 2000
	rep, err := m.MeasureRun(tr.Run(d.Spec.IdlePowerW))
	if err != nil {
		t.Fatal(err)
	}
	rel := rep.DynamicEnergyJ / tr.TraceEnergyJ
	if rel < 0.98 || rel > 1.02 {
		t.Errorf("metered %.1fJ vs trace %.1fJ", rep.DynamicEnergyJ, tr.TraceEnergyJ)
	}
}

func TestTracedDeterministic(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 4096, Products: 4}
	c := MatMulConfig{BS: 16, G: 1, R: 4}
	a, err := d.RunMatMulTraced(w, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.RunMatMulTraced(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceEnergyJ != b.TraceEnergyJ || len(a.Trace) != len(b.Trace) {
		t.Error("scheduler must be deterministic")
	}
}

// tracedByEdgeSort is the original block scheduler, kept as the oracle
// for the merge-based one: it builds every ±1 occupancy edge, sorts them
// all with sort.Slice, and groups the sorted edges.
func tracedByEdgeSort(d *Device, w MatMulWorkload, c MatMulConfig) (*TracedResult, error) {
	r, err := d.RunMatMul(w, c)
	if err != nil {
		return nil, err
	}
	p := r.Profile
	slots := d.Spec.SMs * p.BlocksPerSM
	totalBlocks := p.Blocks * w.Products
	kernelSeconds := r.Seconds - d.cal.launchOverheadS
	blockDur := kernelSeconds * float64(slots) / float64(totalBlocks)
	active := slots
	if active > totalBlocks {
		active = totalBlocks
	}
	base := totalBlocks / active
	extra := totalBlocks % active
	fillWindow := math.Min(float64(active)*2e-6, 0.05*kernelSeconds)

	type edge struct {
		t     float64
		delta int
	}
	edges := make([]edge, 0, 2*active)
	for i := 0; i < active; i++ {
		start := fillWindow * float64(i) / float64(active)
		count := base
		if i < extra {
			count++
		}
		jitter := 1 + 0.02*math.Sin(float64(i)*2.399)
		edges = append(edges, edge{start, +1})
		edges = append(edges, edge{start + float64(count)*blockDur*jitter, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	makespan := edges[len(edges)-1].t

	duty := d.fetchEngineDuty(w.N, c.G)
	fetchW := d.Spec.FetchEnginePowerW * duty
	coreW := r.DynPowerW - d.Spec.BasePowerW - fetchW
	if coreW < 0 {
		coreW = 0
	}
	minStep := makespan / 512
	var trace []TracePoint
	occ := 0
	for i := 0; i < len(edges); {
		t := edges[i].t
		for i < len(edges) && edges[i].t <= t+minStep {
			occ += edges[i].delta
			i++
		}
		frac := float64(occ) / float64(slots)
		if frac > 1 {
			frac = 1
		}
		trace = append(trace, TracePoint{
			Seconds:     t,
			ActiveSlots: occ,
			PowerW:      d.Spec.BasePowerW + fetchW + coreW*frac,
		})
	}
	energy := 0.0
	for i := 0; i < len(trace); i++ {
		end := makespan
		if i+1 < len(trace) {
			end = trace[i+1].Seconds
		}
		energy += trace[i].PowerW * (end - trace[i].Seconds)
	}
	return &TracedResult{Result: r, Trace: trace, TraceSeconds: makespan, TraceEnergyJ: energy}, nil
}

// TestTracedMatchesEdgeSortOracle: the merge-based schedule reproduces
// the edge-sort schedule bit for bit on every enumerated configuration
// of both GPUs over a grid of sizes and batch counts.
func TestTracedMatchesEdgeSortOracle(t *testing.T) {
	sizes := []int{64, 100, 512, 1000, 2048, 4096, 5000, 8192, 10240, 16384}
	products := []int{1, 2, 3, 4, 8, 16}
	bits := math.Float64bits
	cases := 0
	for _, d := range []*Device{NewP100(), NewK40c()} {
		for _, n := range sizes {
			for _, prod := range products {
				w := MatMulWorkload{N: n, Products: prod}
				configs, err := d.EnumerateConfigs(w)
				if err != nil {
					t.Fatalf("%s %+v: %v", d.Spec.Name, w, err)
				}
				for _, c := range configs {
					cases++
					got, err := d.RunMatMulTraced(w, c)
					if err != nil {
						t.Fatalf("%s %+v %+v: %v", d.Spec.Name, w, c, err)
					}
					want, err := tracedByEdgeSort(d, w, c)
					if err != nil {
						t.Fatalf("oracle %s %+v %+v: %v", d.Spec.Name, w, c, err)
					}
					if bits(got.TraceSeconds) != bits(want.TraceSeconds) || bits(got.TraceEnergyJ) != bits(want.TraceEnergyJ) {
						t.Fatalf("%s %+v %+v: makespan/energy %v/%v, oracle %v/%v", d.Spec.Name, w, c,
							got.TraceSeconds, got.TraceEnergyJ, want.TraceSeconds, want.TraceEnergyJ)
					}
					if len(got.Trace) != len(want.Trace) {
						t.Fatalf("%s %+v %+v: %d steps, oracle %d", d.Spec.Name, w, c, len(got.Trace), len(want.Trace))
					}
					for i, g := range got.Trace {
						o := want.Trace[i]
						if bits(g.Seconds) != bits(o.Seconds) || g.ActiveSlots != o.ActiveSlots || bits(g.PowerW) != bits(o.PowerW) {
							t.Fatalf("%s %+v %+v: step %d = %+v, oracle %+v", d.Spec.Name, w, c, i, g, o)
						}
					}
				}
			}
		}
	}
	if cases != 9420 {
		t.Errorf("oracle grid covered %d cases, want 9420", cases)
	}
}

// TestBucketSortMatchesSlicesSort: the drain sort agrees with
// slices.Sort on seeded random inputs and on the shapes that stress a
// bucket sort.
func TestBucketSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := map[string][]float64{
		"empty":     {},
		"single":    {3.5},
		"all equal": {2, 2, 2, 2, 2, 2},
		"two":       {1, 0},
		"tiny span": {1, math.Nextafter(1, 2), 1, math.Nextafter(1, 0)},
	}
	ties := make([]float64, 500)
	for i := range ties {
		ties[i] = float64(rng.Intn(4))
	}
	inputs["heavy ties"] = ties
	outlier := make([]float64, 300)
	for i := range outlier {
		outlier[i] = 1 + rng.Float64()*1e-6
	}
	outlier[rng.Intn(len(outlier))] = 1e6
	inputs["outlier spans the range"] = outlier
	asc := make([]float64, 257)
	desc := make([]float64, 257)
	for i := range asc {
		asc[i] = float64(i) * 0.1
		desc[i] = -float64(i) * 0.1
	}
	inputs["already sorted"] = asc
	inputs["reversed"] = desc
	inputs["huge range"] = []float64{-math.MaxFloat64, math.MaxFloat64, 0, 1, -1}
	for k := 0; k < 50; k++ {
		xs := make([]float64, 1+rng.Intn(2000))
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3))
		}
		inputs["random/"+string(rune('a'+k%26))+string(rune('0'+k/26))] = xs
	}
	for name, src := range inputs {
		orig := slices.Clone(src)
		dst := make([]float64, len(src))
		bucketSort(dst, src, make([]int, len(src)+1))
		want := slices.Clone(src)
		slices.Sort(want)
		if !slices.Equal(src, orig) {
			t.Errorf("%s: bucketSort modified its input", name)
		}
		if !slices.Equal(dst, want) {
			t.Errorf("%s: bucketSort = %v, want %v", name, dst, want)
		}
	}
}

// TestTracedWarmAllocs: once the pooled scratch is sized, a traced run
// allocates only what it returns — the analytic Result, the trace and
// the TracedResult.
func TestTracedWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	c := MatMulConfig{BS: 24, G: 1, R: 8}
	if _, err := d.RunMatMulTraced(w, c); err != nil {
		t.Fatal(err)
	}
	analytic := testing.AllocsPerRun(20, func() {
		if _, err := d.RunMatMul(w, c); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(20, func() {
		if _, err := d.RunMatMulTraced(w, c); err != nil {
			t.Fatal(err)
		}
	})
	if want := analytic + 2; traced > want {
		t.Errorf("warm RunMatMulTraced allocates %.1f objects, want <= %.1f (RunMatMul's %.1f + trace + TracedResult)", traced, want, analytic)
	}
}
