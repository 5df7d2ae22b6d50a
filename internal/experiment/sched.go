package experiment

import (
	"math/rand"

	"energyprop/internal/gpusim"
	"energyprop/internal/parindex"
)

func init() {
	Register(Experiment{
		ID:    "scheduler",
		Title: "Downstream scenario: energy-aware configuration choice under deadlines",
		Paper: "The practical payoff of the weak-EP finding: in a dynamic environment with time constraints, choosing configurations bi-objectively saves energy at zero deadline cost (P100) and is a no-op where the front is a single point (K40c)",
		Run:   runScheduler,
	})
}

// shapeFront is one (N, Products) sweep as a Pareto front keyed by
// MatMulConfig.String(), with each key's swept result.
type shapeFront struct {
	front   parindex.Front
	results map[string]*gpusim.Result
}

// shapeFrontOf returns the front of one job shape on dev, sweeping the
// shape only the first time cache sees it.
func shapeFrontOf(dev *gpusim.Device, cache map[[2]int]*shapeFront, n, products int) (*shapeFront, error) {
	k := [2]int{n, products}
	if s, ok := cache[k]; ok {
		return s, nil
	}
	results, pts, err := gpuSweepPoints(dev, gpusim.MatMulWorkload{N: n, Products: products})
	if err != nil {
		return nil, err
	}
	s := &shapeFront{results: make(map[string]*gpusim.Result, len(results))}
	for i, p := range pts {
		s.front.Insert(parindex.Entry{Config: p.Label, Time: p.Time, Energy: p.Energy})
		s.results[p.Label] = results[i]
	}
	cache[k] = s
	return s, nil
}

// pick returns the result a policy runs: the fastest configuration, or
// for the energy-aware policy the cheapest one meeting the deadline,
// falling back to the fastest when none does. A sweep always has a
// fastest entry.
func (s *shapeFront) pick(deadlineS float64, energyAware bool) *gpusim.Result {
	e, _ := s.front.Fastest()
	if energyAware {
		if best, ok := s.front.Best(parindex.Query{MaxTime: deadlineS}); ok {
			e = best
		}
	}
	return s.results[e.Config]
}

// job is one unit of arriving work: a job shape's front and the job's
// time budget.
type job struct {
	shape     *shapeFront
	deadlineS float64
}

// jobStream generates a deterministic job stream on dev: sizes drawn
// from the given set, deadlines a uniform multiple (1.0 to slackMax) of
// each job's fastest time. Each shape is swept once.
func jobStream(dev *gpusim.Device, sizes []int, products, count int, slackMax float64, seed int64) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	cache := map[[2]int]*shapeFront{}
	jobs := make([]job, 0, count)
	for i := 0; i < count; i++ {
		s, err := shapeFrontOf(dev, cache, sizes[rng.Intn(len(sizes))], products)
		if err != nil {
			return nil, err
		}
		fastest, _ := s.front.Fastest()
		slack := 1 + rng.Float64()*(slackMax-1)
		jobs = append(jobs, job{shape: s, deadlineS: fastest.Time * slack})
	}
	return jobs, nil
}

// runStream executes every job under one policy and totals the time,
// dynamic energy and deadline misses.
func runStream(jobs []job, energyAware bool) (timeS, energyJ float64, misses int) {
	for _, j := range jobs {
		r := j.shape.pick(j.deadlineS, energyAware)
		timeS += r.Seconds
		energyJ += r.DynEnergyJ
		if r.Seconds > j.deadlineS*(1+1e-9) {
			misses++
		}
	}
	return timeS, energyJ, misses
}

// runScheduler simulates the downstream scenario the paper
// motivates: an application programmer in a "dynamic environment with
// time constraints" choosing, per job, which configuration of the
// weak-EP-violating application to run. A stream of jobs (workload
// sizes with deadlines) arrives, a policy picks the (BS, G, R)
// configuration, and the metric is total dynamic energy subject to
// meeting deadlines. Two policies bracket the design space:
//
//   - performance-only: always the fastest configuration — what a user
//     does when they believe weak EP holds (optimizing time optimizes
//     energy). Correct on the K40c, wasteful on the P100.
//   - energy-aware: the cheapest configuration that still meets the
//     job's deadline (the ε-constraint method per job).
func runScheduler(opt Options) ([]*Table, error) {
	sizes := []int{8192, 10240}
	count := 20
	if opt.Quick {
		sizes = []int{4096}
		count = 8
	}
	t := &Table{
		Title: "Job-stream outcomes per policy (deadline slack up to 15%)",
		Columns: []string{"device", "policy", "jobs", "deadline_misses",
			"total_time_s", "total_energy_j", "saving_vs_perf_pct"},
	}
	for _, dev := range []*gpusim.Device{gpusim.NewP100(), gpusim.NewK40c()} {
		jobs, err := jobStream(dev, sizes, 8, count, 1.15, opt.Seed)
		if err != nil {
			return nil, err
		}
		var perfJ float64
		for _, energyAware := range []bool{false, true} {
			timeS, energyJ, misses := runStream(jobs, energyAware)
			policy := "energy-aware"
			if !energyAware {
				policy, perfJ = "performance-only", energyJ
			}
			t.AddRow(dev.Spec.Name, policy, f(float64(len(jobs)), 0),
				f(float64(misses), 0), f(timeS, 2),
				f(energyJ, 0), f(100*(1-energyJ/perfJ), 1))
		}
	}
	t.AddNote("the energy-aware policy exploits the P100's trade-off region; on the K40c (single-point front) it rightly changes nothing")
	return []*Table{t}, nil
}
