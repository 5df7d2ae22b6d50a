package experiment

import (
	"testing"

	"energyprop/internal/gpusim"
)

func testJobs(t *testing.T, dev *gpusim.Device) []job {
	t.Helper()
	jobs, err := jobStream(dev, []int{4096, 8192}, 4, 12, 1.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func testShape(t *testing.T, dev *gpusim.Device, cache map[[2]int]*shapeFront, n, products int) *shapeFront {
	t.Helper()
	s, err := shapeFrontOf(dev, cache, n, products)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamDeterministic(t *testing.T) {
	dev := gpusim.NewP100()
	a, err := jobStream(dev, []int{4096, 8192}, 4, 10, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobStream(dev, []int{4096, 8192}, 4, 10, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		fa, _ := a[i].shape.front.Fastest()
		fb, _ := b[i].shape.front.Fastest()
		if a[i].deadlineS != b[i].deadlineS || fa != fb {
			t.Fatal("same seed must produce the same stream")
		}
	}
	// Deadlines always at least the fastest time.
	for _, j := range a {
		if fastest, _ := j.shape.front.Fastest(); j.deadlineS < fastest.Time {
			t.Fatalf("deadline %v below the fastest time %v", j.deadlineS, fastest.Time)
		}
	}
}

func TestPoliciesMeetDeadlines(t *testing.T) {
	jobs := testJobs(t, gpusim.NewP100())
	for _, energyAware := range []bool{false, true} {
		if _, _, misses := runStream(jobs, energyAware); misses != 0 {
			t.Errorf("energyAware=%v: %d deadline misses, want 0 (deadlines were feasible)", energyAware, misses)
		}
	}
}

func TestEnergyPolicySavesOnP100(t *testing.T) {
	// The paper's practical payoff: on the weak-EP-violating P100, the
	// energy-aware policy beats performance-only on total energy while
	// meeting every deadline.
	jobs := testJobs(t, gpusim.NewP100())
	_, perfJ, _ := runStream(jobs, false)
	_, energyJ, _ := runStream(jobs, true)
	if energyJ >= perfJ {
		t.Errorf("energy-aware %.1fJ should beat performance-only %.1fJ", energyJ, perfJ)
	}
	if saving := 1 - energyJ/perfJ; saving < 0.10 {
		t.Errorf("saving %.1f%%, want > 10%% with 15%% slack on the P100", 100*saving)
	}
}

func TestEnergyPolicyNearNoopOnK40c(t *testing.T) {
	// On the K40c the fastest configuration is also the cheapest: the
	// energy-aware policy cannot do better than performance-only.
	jobs := testJobs(t, gpusim.NewK40c())
	_, perfJ, _ := runStream(jobs, false)
	_, energyJ, _ := runStream(jobs, true)
	if rel := energyJ / perfJ; rel < 0.99 || rel > 1.01 {
		t.Errorf("K40c energy ratio %.3f, want ~1 (single-point front)", rel)
	}
}

func TestInfeasibleDeadlineFallsBackToFastest(t *testing.T) {
	s := testShape(t, gpusim.NewP100(), map[[2]int]*shapeFront{}, 4096, 4)
	j := job{shape: s, deadlineS: 1e-9}
	if _, _, misses := runStream([]job{j}, true); misses != 1 {
		t.Error("impossible deadline must be reported as missed")
	}
	if got, want := s.pick(j.deadlineS, true), s.pick(j.deadlineS, false); got != want {
		t.Errorf("fallback config %v, want the fastest %v", got.Config, want.Config)
	}
}

// TestShapeCacheKeysShape: the cache holds one sweep per (N, Products)
// shape, so a (4096, 65)-shaped job must not leak its sweep into a
// later (4097, 1) job.
func TestShapeCacheKeysShape(t *testing.T) {
	dev := gpusim.NewP100()
	cache := map[[2]int]*shapeFront{}
	testShape(t, dev, cache, 4096, 65)
	got := testShape(t, dev, cache, 4097, 1).pick(1e9, true)
	want := testShape(t, dev, map[[2]int]*shapeFront{}, 4097, 1).pick(1e9, true)
	if got.Config != want.Config || got.Seconds != want.Seconds {
		t.Errorf("after a (4096, 65) shape, (4097, 1) picked %v, a fresh cache picks %v", got.Config, want.Config)
	}
}

// TestEnergyPolicyDeadlineBoundary: a deadline exactly at a
// configuration's time is met, and the pick is the cheapest of the
// configurations that meet it.
func TestEnergyPolicyDeadlineBoundary(t *testing.T) {
	dev := gpusim.NewP100()
	results, err := dev.Sweep(gpusim.MatMulWorkload{N: 4096, Products: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := testShape(t, dev, map[[2]int]*shapeFront{}, 4096, 4)
	for _, r := range results {
		deadline := r.Seconds
		picked := s.pick(deadline, true)
		minE := r.DynEnergyJ
		for _, q := range results {
			if q.Seconds <= deadline && q.DynEnergyJ < minE {
				minE = q.DynEnergyJ
			}
		}
		if picked.Seconds > deadline {
			t.Errorf("deadline %v: pick %v takes %v", deadline, picked.Config, picked.Seconds)
		}
		if picked.DynEnergyJ != minE {
			t.Errorf("deadline %v: pick %v costs %vJ, the cheapest feasible costs %vJ", deadline, picked.Config, picked.DynEnergyJ, minE)
		}
	}
}
