// Package hetero assembles the heterogeneous platform of the paper's
// companion work (its ref [12]: bi-objective optimization of hybrid
// data-parallel applications on CPU+GPU platforms): it builds discrete
// per-processor time/energy profiles by running unit workloads on the
// simulated devices and feeds them to the workload-distribution solver in
// internal/optimize. This is also exactly the hardware ensemble of the
// paper's Fig 1 (one Haswell node, one K40c, one P100).
package hetero

import (
	"errors"
	"fmt"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/gpusim"
	"energyprop/internal/optimize"
)

// Processor abstracts one device that can solve an integer number of
// workload units (a unit being, e.g., one matrix product of a fixed size).
type Processor interface {
	// Name identifies the processor in distributions.
	Name() string
	// RunUnits returns the execution time and dynamic energy of solving
	// the given number of units. RunUnits(0) must return (0, 0, nil).
	RunUnits(units int) (seconds, dynEnergyJ float64, err error)
}

// CPUProcessor adapts a cpusim machine running unit DGEMMs under a fixed
// threadgroup configuration.
type CPUProcessor struct {
	Machine *cpusim.Machine
	UnitN   int
	Config  dense.Config
	Variant dense.Variant
}

// Name implements Processor.
func (c *CPUProcessor) Name() string { return c.Machine.Spec.Name }

// RunUnits implements Processor. Units run back to back, so time and
// energy scale linearly with the count.
func (c *CPUProcessor) RunUnits(units int) (float64, float64, error) {
	if units < 0 {
		return 0, 0, errors.New("hetero: negative units")
	}
	if units == 0 {
		return 0, 0, nil
	}
	r, err := c.Machine.RunGEMM(cpusim.GEMMApp{N: c.UnitN, Config: c.Config, Variant: c.Variant})
	if err != nil {
		return 0, 0, err
	}
	return float64(units) * r.Seconds, float64(units) * r.DynEnergyJ, nil
}

// GPUProcessor adapts a gpusim device running unit matrix products at a
// fixed block size (typically the device's energy- or time-optimal BS).
// Its units run as one batched launch, G=1 and R=units.
type GPUProcessor struct {
	Device *gpusim.Device
	UnitN  int
	BS     int
}

// Name implements Processor.
func (g *GPUProcessor) Name() string { return g.Device.Spec.Name }

// RunUnits implements Processor.
func (g *GPUProcessor) RunUnits(units int) (float64, float64, error) {
	if units < 0 {
		return 0, 0, errors.New("hetero: negative units")
	}
	if units == 0 {
		return 0, 0, nil
	}
	r, err := g.Device.RunMatMul(
		gpusim.MatMulWorkload{N: g.UnitN, Products: units},
		gpusim.MatMulConfig{BS: g.BS, G: 1, R: units})
	if err != nil {
		return 0, 0, err
	}
	return r.Seconds, r.DynEnergyJ, nil
}

// BuildProfile runs the processor at every unit count 0..maxUnits and
// returns its discrete time/energy profile for the distribution solver.
func BuildProfile(p Processor, maxUnits int) (*optimize.ProcessorProfile, error) {
	if p == nil {
		return nil, errors.New("hetero: nil processor")
	}
	if maxUnits < 1 {
		return nil, errors.New("hetero: maxUnits must be >= 1")
	}
	prof := &optimize.ProcessorProfile{
		Name:    p.Name(),
		TimeS:   make([]float64, maxUnits+1),
		EnergyJ: make([]float64, maxUnits+1),
	}
	for w := 1; w <= maxUnits; w++ {
		t, e, err := p.RunUnits(w)
		if err != nil {
			return nil, fmt.Errorf("hetero: %s at %d units: %w", p.Name(), w, err)
		}
		prof.TimeS[w] = t
		prof.EnergyJ[w] = e
	}
	return prof, nil
}

// Distribute profiles every processor and returns the Pareto-optimal
// distributions of totalUnits across them.
func Distribute(procs []Processor, totalUnits int) ([]optimize.Distribution, error) {
	if len(procs) == 0 {
		return nil, errors.New("hetero: no processors")
	}
	profiles := make([]*optimize.ProcessorProfile, len(procs))
	for i, p := range procs {
		prof, err := BuildProfile(p, totalUnits)
		if err != nil {
			return nil, err
		}
		profiles[i] = prof
	}
	return optimize.DistributeWorkload(totalUnits, profiles)
}

// PaperPlatform returns the paper's Fig 1 ensemble — the Haswell node, the
// K40c, and the P100 — with each GPU at its energy-optimal block size and
// the CPU in the balanced two-socket configuration.
func PaperPlatform(unitN int) []Processor {
	return []Processor{
		&CPUProcessor{
			Machine: cpusim.NewHaswell(),
			UnitN:   unitN,
			Config:  dense.Config{Groups: 2, ThreadsPerGroup: 12},
			Variant: dense.VariantPacked,
		},
		&GPUProcessor{Device: gpusim.NewK40c(), UnitN: unitN, BS: 32},
		&GPUProcessor{Device: gpusim.NewP100(), UnitN: unitN, BS: 24},
	}
}
