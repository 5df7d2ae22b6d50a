// Package sched simulates the downstream scenario the paper motivates:
// an application programmer in a "dynamic environment with time
// constraints" choosing, per job, which configuration of the
// weak-EP-violating application to run. A stream of jobs (workload sizes
// with deadlines) arrives; a policy picks the (BS, G, R) configuration;
// the metric is total dynamic energy subject to meeting deadlines.
//
// Two policies bracket the design space:
//
//   - PerformancePolicy: always the fastest configuration — what a user
//     does when they believe weak EP holds (optimizing time optimizes
//     energy). Correct on the K40c, wasteful on the P100.
//
//   - EnergyPolicy: the cheapest configuration that still meets the
//     job's deadline (the ε-constraint method per job).
//
// Both query a parindex.Front built from the job shape's sweep.
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"energyprop/internal/gpusim"
	"energyprop/internal/parindex"
)

// Job is one unit of arriving work.
type Job struct {
	// N is the matrix size; Products the product count.
	N, Products int
	// DeadlineS is the time budget for the job.
	DeadlineS float64
}

// Outcome is one executed job.
type Outcome struct {
	Job     Job
	Config  gpusim.MatMulConfig
	Seconds float64
	EnergyJ float64
	// Met reports whether the deadline held.
	Met bool
}

// Policy picks a configuration for a job on a device.
type Policy interface {
	Name() string
	Pick(dev *gpusim.Device, job Job) (gpusim.MatMulConfig, error)
}

// sweptFront is one (N, Products) sweep as a Pareto front keyed by
// MatMulConfig.String(), with each key's configuration.
type sweptFront struct {
	front   parindex.Front
	configs map[string]gpusim.MatMulConfig
}

// sweep runs the configuration sweep of one job shape and indexes it.
func sweep(dev *gpusim.Device, n, products int) (*sweptFront, error) {
	results, err := dev.Sweep(gpusim.MatMulWorkload{N: n, Products: products})
	if err != nil {
		return nil, err
	}
	s := &sweptFront{configs: make(map[string]gpusim.MatMulConfig, len(results))}
	for _, r := range results {
		key := r.Config.String()
		s.front.Insert(parindex.Entry{Config: key, Time: r.Seconds, Energy: r.DynEnergyJ})
		s.configs[key] = r.Config
	}
	return s, nil
}

// fastest returns the minimum-time entry; a sweep always has one.
func (s *sweptFront) fastest() parindex.Entry {
	e, _ := s.front.Fastest()
	return e
}

// PerformancePolicy always runs the fastest configuration.
type PerformancePolicy struct{}

// Name implements Policy.
func (PerformancePolicy) Name() string { return "performance-only" }

// Pick implements Policy.
func (PerformancePolicy) Pick(dev *gpusim.Device, job Job) (gpusim.MatMulConfig, error) {
	s, err := sweep(dev, job.N, job.Products)
	if err != nil {
		return gpusim.MatMulConfig{}, err
	}
	return s.configs[s.fastest().Config], nil
}

// shape is the EnergyPolicy cache key: one sweep per job shape.
type shape struct{ N, Products int }

// EnergyPolicy runs the cheapest configuration meeting the deadline,
// using a per-shape cached sweep (so repeated shapes cost one sweep).
type EnergyPolicy struct {
	cache map[shape]*sweptFront
}

// NewEnergyPolicy returns an EnergyPolicy with an empty cache.
func NewEnergyPolicy() *EnergyPolicy {
	return &EnergyPolicy{cache: map[shape]*sweptFront{}}
}

// Name implements Policy.
func (*EnergyPolicy) Name() string { return "energy-aware" }

// Pick implements Policy: the ε-constraint query with the job's
// absolute deadline as the time bound, or the fastest configuration when
// no configuration meets the deadline.
func (p *EnergyPolicy) Pick(dev *gpusim.Device, job Job) (gpusim.MatMulConfig, error) {
	k := shape{job.N, job.Products}
	s, ok := p.cache[k]
	if !ok {
		var err error
		if s, err = sweep(dev, job.N, job.Products); err != nil {
			return gpusim.MatMulConfig{}, err
		}
		p.cache[k] = s
	}
	pick, ok := s.front.Best(parindex.Query{MaxTime: job.DeadlineS})
	if !ok {
		pick = s.fastest()
	}
	return s.configs[pick.Config], nil
}

// Stream generates a deterministic job stream: sizes from the given set,
// deadlines a uniform multiple (1.0 to slackMax) of each job's fastest
// time.
func Stream(dev *gpusim.Device, sizes []int, products, count int, slackMax float64, seed int64) ([]Job, error) {
	if len(sizes) == 0 || count < 1 {
		return nil, errors.New("sched: need sizes and a positive count")
	}
	if slackMax < 1 {
		return nil, errors.New("sched: slackMax must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, 0, count)
	fastCache := map[int]float64{}
	for i := 0; i < count; i++ {
		n := sizes[rng.Intn(len(sizes))]
		fast, ok := fastCache[n]
		if !ok {
			s, err := sweep(dev, n, products)
			if err != nil {
				return nil, err
			}
			fast = s.fastest().Time
			fastCache[n] = fast
		}
		slack := 1 + rng.Float64()*(slackMax-1)
		jobs = append(jobs, Job{N: n, Products: products, DeadlineS: fast * slack})
	}
	return jobs, nil
}

// RunStream executes the job stream under a policy and reports outcomes.
type StreamReport struct {
	Policy       string
	Outcomes     []Outcome
	TotalEnergyJ float64
	TotalTimeS   float64
	DeadlineMiss int
}

// RunStream executes every job under the policy.
func RunStream(dev *gpusim.Device, jobs []Job, p Policy) (*StreamReport, error) {
	if dev == nil || p == nil {
		return nil, errors.New("sched: nil device or policy")
	}
	rep := &StreamReport{Policy: p.Name()}
	for _, job := range jobs {
		cfg, err := p.Pick(dev, job)
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s on job %+v: %w", p.Name(), job, err)
		}
		r, err := dev.RunMatMul(gpusim.MatMulWorkload{N: job.N, Products: job.Products}, cfg)
		if err != nil {
			return nil, err
		}
		o := Outcome{
			Job: job, Config: cfg, Seconds: r.Seconds, EnergyJ: r.DynEnergyJ,
			Met: r.Seconds <= job.DeadlineS*(1+1e-9),
		}
		rep.Outcomes = append(rep.Outcomes, o)
		rep.TotalEnergyJ += o.EnergyJ
		rep.TotalTimeS += o.Seconds
		if !o.Met {
			rep.DeadlineMiss++
		}
	}
	return rep, nil
}
