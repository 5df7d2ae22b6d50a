package device

import (
	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/gpusim"
	"energyprop/internal/meter"
)

// family is one application family, defined once for every backend: its
// GPU configuration space, the kernels one instance runs on a GPU and on
// a CPU, and how the Fig 1 ensemble runs a unit of it. A new family is
// one entry in families plus its simulator kernels.
type family struct {
	name string
	// gpuMinN and cpuMinN are the smallest sizes each backend admits
	// (0: any); gpuSpace enumerates the GPU points.
	gpuMinN, cpuMinN int
	gpuSpace         func(d *gpusim.Device, w Workload) ([]Config, error)
	// gpu runs one instance at GPU point c, whose type is unit's. Nil for
	// dgemm, whose Products run as one batched RunMatMul (see
	// GPU.runDense).
	gpu func(d *gpusim.Device, n int, c Config) (phases, error)
	// cpu runs one instance under any threadgroup decomposition.
	cpu func(m *cpusim.Machine, n int, c dense.Config) (phases, error)
	// unit is the family's canonical GPU point, nil for dgemm. Every GPU
	// point of the family has its type, and when ensemble reports that
	// the Fig 1 ensemble can distribute the family its GPUs run a unit
	// there (dgemm units run through the processors of internal/hetero).
	unit     Config
	ensemble bool
}

// families is the family table in canonical order, read-only after
// package initialization. It is built in a function body so the call
// graph epvet's purerun rule walks from every Run sees its kernels.
var families = familyTable()

func familyTable() []family {
	return []family{{
		name: AppDense,
		gpuSpace: func(d *gpusim.Device, w Workload) ([]Config, error) {
			raw, err := d.EnumerateConfigs(gpusim.MatMulWorkload{N: w.N, Products: w.Products})
			out := make([]Config, len(raw))
			for i, c := range raw {
				out[i] = GPUPoint{C: c}
			}
			return out, err
		},
		cpu: func(m *cpusim.Machine, n int, c dense.Config) (phases, error) {
			return phases{}.cpu(m.RunGEMM(cpusim.GEMMApp{N: n, Config: c}))
		},
		ensemble: true,
	}, {
		name:     AppFFT,
		gpuMinN:  2,
		cpuMinN:  2,
		gpuSpace: func(*gpusim.Device, Workload) ([]Config, error) { return []Config{FFTPoint{}}, nil },
		gpu: func(d *gpusim.Device, n int, _ Config) (phases, error) {
			r, err := d.RunFFT2D(n)
			if err != nil {
				return phases{}, err
			}
			return phases{}.add(r.Seconds, r.DynEnergyJ, r.DynPowerW), nil
		},
		cpu: func(m *cpusim.Machine, n int, c dense.Config) (phases, error) {
			return phases{}.cpu(m.RunFFT2DThreaded(n, c))
		},
		unit: FFTPoint{},
	}, {
		name: AppSpMV,
		gpuSpace: func(*gpusim.Device, Workload) ([]Config, error) {
			var out []Config
			for _, l := range gpusim.SpMVLaneSpace() {
				out = append(out, SpMVPoint{Lanes: l})
			}
			return out, nil
		},
		gpu: func(d *gpusim.Device, n int, c Config) (phases, error) {
			return phases{}.spmv(d, n, c.(SpMVPoint).Lanes)
		},
		cpu: func(m *cpusim.Machine, n int, c dense.Config) (phases, error) {
			return phases{}.cpu(m.RunSpMVThreaded(n, c))
		},
		ensemble: true,
		unit:     SpMVPoint{Lanes: gpusim.DefaultSpMVLanes},
	}, {
		name:    AppStencil,
		cpuMinN: 3,
		gpuSpace: func(_ *gpusim.Device, w Workload) ([]Config, error) {
			var out []Config
			for _, t := range gpusim.StencilTileSpace() {
				if t <= w.N {
					out = append(out, StencilPoint{Tile: t})
				}
			}
			return out, nil
		},
		gpu: func(d *gpusim.Device, n int, c Config) (phases, error) {
			return phases{}.stencil(d, n, c.(StencilPoint).Tile)
		},
		cpu: func(m *cpusim.Machine, n int, c dense.Config) (phases, error) {
			return phases{}.cpu(m.RunStencilThreaded(n, c))
		},
		ensemble: true,
		unit:     StencilPoint{Tile: gpusim.DefaultStencilTile},
	}, {
		// One SpMV then one stencil sweep per instance, at the
		// canonical knobs on a GPU and under one decomposition on a CPU.
		name:     AppCompound,
		gpuMinN:  gpusim.DefaultStencilTile,
		cpuMinN:  3,
		gpuSpace: func(*gpusim.Device, Workload) ([]Config, error) { return []Config{CompoundPoint{}}, nil },
		gpu: func(d *gpusim.Device, n int, _ Config) (phases, error) {
			ps, err := phases{}.spmv(d, n, gpusim.DefaultSpMVLanes)
			if err != nil {
				return ps, err
			}
			return ps.stencil(d, n, gpusim.DefaultStencilTile)
		},
		cpu: func(m *cpusim.Machine, n int, c dense.Config) (phases, error) {
			ps, err := phases{}.cpu(m.RunSpMVThreaded(n, c))
			if err != nil {
				return ps, err
			}
			return ps.cpu(m.RunStencilThreaded(n, c))
		},
		ensemble: true,
		unit:     CompoundPoint{},
	}}
}

// Apps lists the application families in canonical order.
func Apps() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// familyOf returns the table entry for a normalized app name, or nil.
func familyOf(app string) *family {
	for i := range families {
		if families[i].name == app {
			return &families[i]
		}
	}
	return nil
}

// lookup normalizes and validates w and returns its family.
func lookup(w Workload) (*family, Workload, error) {
	w = w.Normalized()
	return familyOf(w.App), w, w.Validate()
}

// phases is the kernel sequence of one instance, each phase with its
// model time, dynamic energy and dynamic power. The fixed array keeps
// runs allocation-free.
type phases struct {
	p [2]struct{ seconds, energyJ, powerW float64 }
	n int
}

func (ps phases) add(seconds, energyJ, powerW float64) phases {
	ps.p[ps.n].seconds, ps.p[ps.n].energyJ, ps.p[ps.n].powerW = seconds, energyJ, powerW
	ps.n++
	return ps
}

// cpu appends a CPU kernel's result.
func (ps phases) cpu(r *cpusim.Result, err error) (phases, error) {
	if err != nil {
		return ps, err
	}
	return ps.add(r.Seconds, r.DynEnergyJ, r.DynPowerW), nil
}

func (ps phases) spmv(d *gpusim.Device, n, lanes int) (phases, error) {
	r, err := d.RunSpMV(n, lanes)
	if err != nil {
		return ps, err
	}
	return ps.add(r.Seconds, r.DynEnergyJ, r.DynPowerW), nil
}

func (ps phases) stencil(d *gpusim.Device, n, tile int) (phases, error) {
	r, err := d.RunStencil(n, tile)
	if err != nil {
		return ps, err
	}
	return ps.add(r.Seconds, r.DynEnergyJ, r.DynPowerW), nil
}

// times returns the time and dynamic energy of count back-to-back
// instances: count·Σseconds and count·Σenergy, phases summed in order.
func (ps phases) times(count int) (seconds, energyJ float64) {
	for _, p := range ps.p[:ps.n] {
		seconds += p.seconds
		energyJ += p.energyJ
	}
	return float64(count) * seconds, float64(count) * energyJ
}

// outcome is products back-to-back instances on a node idling at idleW:
// a constant profile for one phase, and for several a staircase of one
// segment per phase whose energy is exactly the sum of the phases'.
func (ps phases) outcome(products int, idleW float64) *Outcome {
	out := &Outcome{}
	out.TrueSeconds, out.TrueEnergyJ = ps.times(products)
	n := float64(products)
	if ps.n == 1 {
		out.Run = meter.ConstantRun{Seconds: n * ps.p[0].seconds, Watts: idleW + ps.p[0].powerW}
		return out
	}
	run := &meter.SegmentRun{}
	for _, p := range ps.p[:ps.n] {
		run.AddSegment(n*p.seconds, idleW+p.powerW)
	}
	out.Run = run
	return out
}
