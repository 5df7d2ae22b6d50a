package sched

import (
	"testing"

	"energyprop/internal/gpusim"
)

func testJobs(t *testing.T, dev *gpusim.Device) []Job {
	t.Helper()
	jobs, err := Stream(dev, []int{4096, 8192}, 4, 12, 1.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestStreamValidation(t *testing.T) {
	dev := gpusim.NewP100()
	if _, err := Stream(dev, nil, 4, 5, 1.2, 1); err == nil {
		t.Error("no sizes: want error")
	}
	if _, err := Stream(dev, []int{4096}, 4, 0, 1.2, 1); err == nil {
		t.Error("count=0: want error")
	}
	if _, err := Stream(dev, []int{4096}, 4, 5, 0.5, 1); err == nil {
		t.Error("slack < 1: want error")
	}
}

func TestStreamDeterministic(t *testing.T) {
	dev := gpusim.NewP100()
	a, err := Stream(dev, []int{4096, 8192}, 4, 10, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(dev, []int{4096, 8192}, 4, 10, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce the same stream")
		}
	}
	// Deadlines always at least the fastest time.
	for _, j := range a {
		if j.DeadlineS <= 0 {
			t.Fatal("non-positive deadline")
		}
	}
}

func TestPoliciesMeetDeadlines(t *testing.T) {
	dev := gpusim.NewP100()
	jobs := testJobs(t, dev)
	for _, p := range []Policy{PerformancePolicy{}, NewEnergyPolicy()} {
		rep, err := RunStream(dev, jobs, p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DeadlineMiss != 0 {
			t.Errorf("%s: %d deadline misses, want 0 (deadlines were feasible)", p.Name(), rep.DeadlineMiss)
		}
		if len(rep.Outcomes) != len(jobs) {
			t.Errorf("%s: %d outcomes for %d jobs", p.Name(), len(rep.Outcomes), len(jobs))
		}
	}
}

func TestEnergyPolicySavesOnP100(t *testing.T) {
	// The paper's practical payoff: on the weak-EP-violating P100, the
	// energy-aware policy beats performance-only on total energy while
	// meeting every deadline.
	dev := gpusim.NewP100()
	jobs := testJobs(t, dev)
	perf, err := RunStream(dev, jobs, PerformancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	energy, err := RunStream(dev, jobs, NewEnergyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if energy.TotalEnergyJ >= perf.TotalEnergyJ {
		t.Errorf("energy-aware %.1fJ should beat performance-only %.1fJ",
			energy.TotalEnergyJ, perf.TotalEnergyJ)
	}
	saving := 1 - energy.TotalEnergyJ/perf.TotalEnergyJ
	if saving < 0.10 {
		t.Errorf("saving %.1f%%, want > 10%% with 15%% slack on the P100", 100*saving)
	}
}

func TestEnergyPolicyNearNoopOnK40c(t *testing.T) {
	// On the K40c the fastest configuration is also the cheapest: the
	// energy-aware policy cannot do better than performance-only.
	dev := gpusim.NewK40c()
	jobs := testJobs(t, dev)
	perf, err := RunStream(dev, jobs, PerformancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	energy, err := RunStream(dev, jobs, NewEnergyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	rel := energy.TotalEnergyJ / perf.TotalEnergyJ
	if rel < 0.99 || rel > 1.01 {
		t.Errorf("K40c energy ratio %.3f, want ~1 (single-point front)", rel)
	}
}

func TestInfeasibleDeadlineFallsBackToFastest(t *testing.T) {
	dev := gpusim.NewP100()
	job := Job{N: 4096, Products: 4, DeadlineS: 1e-9}
	p := NewEnergyPolicy()
	cfg, err := p.Pick(dev, job)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunStream(dev, []Job{job}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineMiss != 1 {
		t.Error("impossible deadline must be reported as missed")
	}
	perfCfg, err := PerformancePolicy{}.Pick(dev, job)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != perfCfg {
		t.Errorf("fallback config %v, want the fastest %v", cfg, perfCfg)
	}
}

func TestRunStreamValidation(t *testing.T) {
	if _, err := RunStream(nil, nil, PerformancePolicy{}); err == nil {
		t.Error("nil device: want error")
	}
	if _, err := RunStream(gpusim.NewP100(), nil, nil); err == nil {
		t.Error("nil policy: want error")
	}
}

// TestEnergyPolicyCacheKeysShape: the policy caches one sweep per
// (N, Products) shape, so a (4096, 65)-shaped job must not leak its
// sweep into a later (4097, 1) job.
func TestEnergyPolicyCacheKeysShape(t *testing.T) {
	dev := gpusim.NewP100()
	first := Job{N: 4096, Products: 65, DeadlineS: 1e9}
	second := Job{N: 4097, Products: 1, DeadlineS: 1e9}
	p := NewEnergyPolicy()
	rep, err := RunStream(dev, []Job{first, second}, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEnergyPolicy().Pick(dev, second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Outcomes[1].Config; got != want {
		t.Errorf("after a %+v job, %+v picked %v, a fresh policy picks %v", first, second, got, want)
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
	p := NewEnergyPolicy()
	for _, r := range results {
		job := Job{N: 4096, Products: 4, DeadlineS: r.Seconds}
		cfg, err := p.Pick(dev, job)
		if err != nil {
			t.Fatal(err)
		}
		minE := r.DynEnergyJ
		var picked *gpusim.Result
		for _, q := range results {
			if q.Seconds <= job.DeadlineS && q.DynEnergyJ < minE {
				minE = q.DynEnergyJ
			}
			if q.Config == cfg {
				picked = q
			}
		}
		if picked == nil {
			t.Fatalf("deadline %v: pick %v is not a swept configuration", job.DeadlineS, cfg)
		}
		if picked.Seconds > job.DeadlineS {
			t.Errorf("deadline %v: pick %v takes %v", job.DeadlineS, cfg, picked.Seconds)
		}
		if picked.DynEnergyJ != minE {
			t.Errorf("deadline %v: pick %v costs %vJ, the cheapest feasible costs %vJ", job.DeadlineS, cfg, picked.DynEnergyJ, minE)
		}
	}
}
