package device

import (
	"context"
	"errors"
	"fmt"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
)

// CPU adapts a *cpusim.Machine. Its decision variables are the
// threadgroup decompositions of the Fig 4 application — (partition,
// groups, threads-per-group) — over the dense DGEMM or the threaded 2D
// FFT, the configuration space of the companion CPU weak-EP study.
type CPU struct {
	name string
	m    *cpusim.Machine
}

// NewCPU wraps a cpusim machine under the given registry name.
func NewCPU(name string, m *cpusim.Machine) (*CPU, error) {
	if name == "" {
		return nil, errors.New("device: CPU needs a name")
	}
	if m == nil || m.Spec == nil {
		return nil, errors.New("device: nil cpusim machine")
	}
	return &CPU{name: name, m: m}, nil
}

// Name implements Device.
func (c *CPU) Name() string { return c.name }

// Kind implements Device.
func (c *CPU) Kind() string { return "cpu" }

// Spec implements Device. CPU specs carry no nameplate TDP, so TDPWatts
// is 0.
func (c *CPU) Spec() Spec {
	return Spec{CatalogName: c.m.Spec.Name, IdlePowerW: c.m.Spec.IdlePowerW}
}

// CPUPoint is one threadgroup decomposition.
type CPUPoint struct {
	C dense.Config
}

// Key implements Config, e.g. "contiguous/p=2/t=12".
func (p CPUPoint) Key() string {
	return fmt.Sprintf("%s/p=%d/t=%d", p.C.Partition, p.C.Groups, p.C.ThreadsPerGroup)
}

// String implements Config with the decomposition notation.
func (p CPUPoint) String() string { return p.C.String() }

// Configs implements Device: the machine's enumeration filtered to the
// decompositions valid for the workload size (threads <= N).
func (c *CPU) Configs(w Workload) ([]Config, error) {
	f, w, err := lookup(w)
	if err != nil {
		return nil, err
	}
	if w.N < f.cpuMinN {
		return nil, fmt.Errorf("device: %s %s size %d must be >= %d", c.name, w.App, w.N, f.cpuMinN)
	}
	var out []Config
	for _, cfg := range c.m.EnumerateConfigs() {
		if cfg.Validate(w.N) == nil {
			out = append(out, CPUPoint{C: cfg})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("device: %s admits no configurations for %v", c.name, w)
	}
	return out, nil
}

// Run implements Device. Products instances run back to back, so time
// and energy scale linearly with the count; a compound instance's
// phases all run under the same decomposition.
func (c *CPU) Run(ctx context.Context, w Workload, cfg Config) (*Outcome, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	f, w, err := lookup(w)
	if err != nil {
		return nil, err
	}
	p, ok := cfg.(CPUPoint)
	if !ok {
		return nil, configMismatch(c, cfg)
	}
	ps, err := f.cpu(c.m, w.N, p.C)
	if err != nil {
		return nil, err
	}
	return ps.outcome(w.Products, c.m.Spec.IdlePowerW), nil
}
