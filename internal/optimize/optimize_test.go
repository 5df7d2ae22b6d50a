package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearProfile builds a profile with time w/speed and energy w·rate.
func linearProfile(name string, n int, speed, rate float64) *ProcessorProfile {
	p := &ProcessorProfile{Name: name, TimeS: make([]float64, n+1), EnergyJ: make([]float64, n+1)}
	for w := 1; w <= n; w++ {
		p.TimeS[w] = float64(w) / speed
		p.EnergyJ[w] = float64(w) * rate
	}
	return p
}

func TestDistributeWorkloadSingleProcessor(t *testing.T) {
	p := linearProfile("p0", 10, 2, 3)
	ds, err := DistributeWorkload(10, []*ProcessorProfile{p})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("%d distributions, want 1", len(ds))
	}
	if ds[0].Units[0] != 10 || ds[0].TimeS != 5 || ds[0].EnergyJ != 30 {
		t.Errorf("got %+v", ds[0])
	}
}

func TestDistributeWorkloadTwoIdentical(t *testing.T) {
	// Two identical linear processors: time-optimal split is even; all
	// Pareto-optimal distributions have the same energy (linear), so the
	// front is the single even split.
	a := linearProfile("a", 8, 1, 1)
	b := linearProfile("b", 8, 1, 1)
	ds, err := DistributeWorkload(8, []*ProcessorProfile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("%d distributions, want 1 (even split dominates)", len(ds))
	}
	if ds[0].Units[0] != 4 || ds[0].Units[1] != 4 {
		t.Errorf("split %v, want [4 4]", ds[0].Units)
	}
}

func TestDistributeWorkloadFastHungryVsSlowFrugal(t *testing.T) {
	// A fast but energy-hungry processor vs a slow frugal one: the front
	// must contain both extremes and trade-off mixes.
	fast := linearProfile("fast", 6, 4, 10)
	frugal := linearProfile("frugal", 6, 1, 1)
	ds, err := DistributeWorkload(6, []*ProcessorProfile{fast, frugal})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) < 2 {
		t.Fatalf("front %v too small: want a real trade-off", ds)
	}
	// Fastest solution: everything minimizing max-time; cheapest: all on
	// frugal.
	fastest, cheapest := ds[0], ds[0]
	for _, d := range ds {
		if d.TimeS < fastest.TimeS {
			fastest = d
		}
		if d.EnergyJ < cheapest.EnergyJ {
			cheapest = d
		}
	}
	if cheapest.Units[1] != 6 {
		t.Errorf("cheapest should put all work on the frugal processor, got %v", cheapest.Units)
	}
	if fastest.TimeS >= cheapest.TimeS {
		t.Error("fastest should beat cheapest on time")
	}
	if cheapest.EnergyJ >= fastest.EnergyJ {
		t.Error("cheapest should beat fastest on energy")
	}
}

func TestDistributeWorkloadValidation(t *testing.T) {
	p := linearProfile("p", 4, 1, 1)
	if _, err := DistributeWorkload(0, []*ProcessorProfile{p}); err == nil {
		t.Error("zero workload: want error")
	}
	if _, err := DistributeWorkload(4, nil); err == nil {
		t.Error("no processors: want error")
	}
	if _, err := DistributeWorkload(5, []*ProcessorProfile{p}); err == nil {
		t.Error("tables too short: want error")
	}
	bad := linearProfile("bad", 4, 1, 1)
	bad.EnergyJ[0] = 1
	if _, err := DistributeWorkload(4, []*ProcessorProfile{bad}); err == nil {
		t.Error("nonzero idle cost: want error")
	}
	neg := linearProfile("neg", 4, 1, 1)
	neg.TimeS[2] = -1
	if _, err := DistributeWorkload(4, []*ProcessorProfile{neg}); err == nil {
		t.Error("negative time: want error")
	}
	ragged := linearProfile("ragged", 4, 1, 1)
	ragged.EnergyJ = ragged.EnergyJ[:3]
	if _, err := DistributeWorkload(4, []*ProcessorProfile{ragged}); err == nil {
		t.Error("ragged tables: want error")
	}
}

// bruteForce enumerates every distribution and returns its Pareto front.
func bruteForce(n int, procs []*ProcessorProfile) []Distribution {
	var all []Distribution
	var rec func(k, left int, units []int)
	rec = func(k, left int, units []int) {
		if k == len(procs)-1 {
			u := append(append([]int(nil), units...), left)
			tm, en := 0.0, 0.0
			for i, w := range u {
				tm = math.Max(tm, procs[i].TimeS[w])
				en += procs[i].EnergyJ[w]
			}
			all = append(all, Distribution{Units: u, TimeS: tm, EnergyJ: en})
			return
		}
		for s := 0; s <= left; s++ {
			rec(k+1, left-s, append(units, s))
		}
	}
	rec(0, n, nil)
	// Pareto filter with duplicate collapse on objectives.
	var front []Distribution
	seen := map[[2]float64]bool{}
	for _, d := range all {
		dominated := false
		for _, e := range all {
			if (e.TimeS < d.TimeS && e.EnergyJ <= d.EnergyJ) ||
				(e.TimeS <= d.TimeS && e.EnergyJ < d.EnergyJ) {
				dominated = true
				break
			}
		}
		key := [2]float64{d.TimeS, d.EnergyJ}
		if !dominated && !seen[key] {
			seen[key] = true
			front = append(front, d)
		}
	}
	sortDistributions(front)
	return front
}

func TestDistributeWorkloadMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		nProcs := 2 + rng.Intn(2)
		procs := make([]*ProcessorProfile, nProcs)
		for i := range procs {
			p := &ProcessorProfile{
				Name:    "p",
				TimeS:   make([]float64, n+1),
				EnergyJ: make([]float64, n+1),
			}
			// Random monotone-ish cost tables.
			for w := 1; w <= n; w++ {
				p.TimeS[w] = p.TimeS[w-1] + float64(rng.Intn(5)+1)
				p.EnergyJ[w] = p.EnergyJ[w-1] + float64(rng.Intn(5)+1)
			}
			procs[i] = p
		}
		got, err := DistributeWorkload(n, procs)
		if err != nil {
			return false
		}
		want := bruteForce(n, procs)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].TimeS != want[i].TimeS || got[i].EnergyJ != want[i].EnergyJ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDistributionUnitsSumProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		procs := []*ProcessorProfile{
			linearProfile("a", n, 1+rng.Float64()*3, 1+rng.Float64()*5),
			linearProfile("b", n, 1+rng.Float64()*3, 1+rng.Float64()*5),
			linearProfile("c", n, 1+rng.Float64()*3, 1+rng.Float64()*5),
		}
		ds, err := DistributeWorkload(n, procs)
		if err != nil {
			return false
		}
		for _, d := range ds {
			sum := 0
			for _, u := range d.Units {
				sum += u
			}
			if sum != n || len(d.Units) != len(procs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPoints(t *testing.T) {
	ds := []Distribution{{Units: []int{2, 3}, TimeS: 4, EnergyJ: 9}}
	pts := Points(ds)
	if len(pts) != 1 || pts[0].Time != 4 || pts[0].Energy != 9 || pts[0].Label != "[2 3]" {
		t.Errorf("got %+v", pts)
	}
}
