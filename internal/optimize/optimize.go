// Package optimize provides the bi-objective solution methods the paper's
// related work builds on and that its findings motivate: the
// workload-distribution solver of the authors' companion line of work
// ([12], [25], [26] in the paper) — given per-processor discrete time and
// dynamic-energy functions of the workload size, compute the
// Pareto-optimal set of workload distributions for (parallel execution
// time, total dynamic energy) — and the adaptive block-size search.
// ε-constraint selection over a finished sweep is parindex.Front.Best.
package optimize

import (
	"errors"
	"fmt"
	"math"

	"energyprop/internal/pareto"
)

// ProcessorProfile is one processor's discrete time/energy behaviour:
// TimeS[w] and EnergyJ[w] are the execution time and dynamic energy of
// solving w workload units on this processor, for w = 0..len-1. Entry 0
// must be (0, 0): an idle processor costs nothing dynamic.
type ProcessorProfile struct {
	Name    string
	TimeS   []float64
	EnergyJ []float64
}

// Validate checks the profile covers workloads 0..n.
func (p *ProcessorProfile) Validate(n int) error {
	if len(p.TimeS) != len(p.EnergyJ) {
		return fmt.Errorf("optimize: %s: time and energy tables differ in length", p.Name)
	}
	if len(p.TimeS) < n+1 {
		return fmt.Errorf("optimize: %s: tables cover %d units, need %d", p.Name, len(p.TimeS)-1, n)
	}
	if p.TimeS[0] != 0 || p.EnergyJ[0] != 0 {
		return fmt.Errorf("optimize: %s: zero workload must cost (0, 0)", p.Name)
	}
	for w := 1; w <= n; w++ {
		if p.TimeS[w] < 0 || p.EnergyJ[w] < 0 {
			return fmt.Errorf("optimize: %s: negative cost at workload %d", p.Name, w)
		}
	}
	return nil
}

// Distribution is one Pareto-optimal workload split.
type Distribution struct {
	// Units[i] is the workload assigned to processor i; the units sum to
	// the problem size.
	Units []int
	// TimeS is the parallel execution time: max over processors.
	TimeS float64
	// EnergyJ is the total dynamic energy: sum over processors.
	EnergyJ float64
}

// label renders the distribution for pareto points.
func (d Distribution) label() string {
	return fmt.Sprintf("%v", d.Units)
}

// DistributeWorkload computes the Pareto-optimal workload distributions of
// n units across the processors, minimizing (max time, total energy). It
// is a dynamic program over processors: state k holds the Pareto set of
// (time, energy, assignment) for every total w assigned to the first k
// processors; each step extends every state by every share on the next
// processor and prunes dominated partial solutions. Complexity is
// O(p · n² · F) where F is the per-state front size after pruning.
func DistributeWorkload(n int, procs []*ProcessorProfile) ([]Distribution, error) {
	if n < 1 {
		return nil, errors.New("optimize: workload must be positive")
	}
	if len(procs) == 0 {
		return nil, errors.New("optimize: need at least one processor")
	}
	for _, p := range procs {
		if err := p.Validate(n); err != nil {
			return nil, err
		}
	}

	// states[w] is the Pareto set of partials assigning w units to the
	// processors handled so far.
	states := make([][]partial, n+1)
	states[0] = []partial{{0, 0, nil}}

	for k, proc := range procs {
		next := make([][]partial, n+1)
		for w, set := range states {
			if set == nil {
				continue
			}
			for _, st := range set {
				// Assign s units to processor k.
				for s := 0; s+w <= n; s++ {
					t := math.Max(st.time, proc.TimeS[s])
					e := st.energy + proc.EnergyJ[s]
					units := append(append([]int(nil), st.units...), s)
					next[w+s] = insertPareto(next[w+s], partial{t, e, units})
				}
			}
		}
		// Only full assignments matter at the last processor; otherwise
		// keep all partial sums.
		if k == len(procs)-1 {
			states = make([][]partial, n+1)
			states[n] = next[n]
		} else {
			states = next
		}
	}

	final := states[n]
	if len(final) == 0 {
		return nil, errors.New("optimize: no feasible distribution")
	}
	out := make([]Distribution, len(final))
	for i, st := range final {
		out[i] = Distribution{Units: st.units, TimeS: st.time, EnergyJ: st.energy}
	}
	sortDistributions(out)
	return out, nil
}

// insertPareto maintains a small Pareto set of partials: the candidate is
// added unless dominated, and existing entries it dominates are removed.
// Ties on both objectives keep the incumbent.
func insertPareto(set []partial, c partial) []partial {
	out := set[:0]
	for _, s := range set {
		if (s.time <= c.time && s.energy < c.energy) ||
			(s.time < c.time && s.energy <= c.energy) ||
			//lint:ignore floateq duplicate detection must be exact: a tolerance would merge distinct near-optimal partials and shrink the front
			(s.time == c.time && s.energy == c.energy) {
			// c is dominated (or duplicate): keep the set unchanged.
			return set
		}
		if !(c.time <= s.time && c.energy <= s.energy) {
			out = append(out, s)
		}
	}
	return append(out, c)
}

type partial struct {
	time, energy float64
	units        []int
}

func sortDistributions(ds []Distribution) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && less(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func less(a, b Distribution) bool {
	//lint:ignore floateq exact tie-break keeps the distribution sort total and deterministic
	if a.TimeS != b.TimeS {
		return a.TimeS < b.TimeS
	}
	return a.EnergyJ < b.EnergyJ
}

// Points converts distributions to pareto points for trade-off analysis.
func Points(ds []Distribution) []pareto.Point {
	out := make([]pareto.Point, len(ds))
	for i, d := range ds {
		out[i] = pareto.Point{Label: d.label(), Time: d.TimeS, Energy: d.EnergyJ}
	}
	return out
}
