package device

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"energyprop/internal/gpusim"
)

// GPU adapts a *gpusim.Device. Its dense decision variables are the
// paper's (BS, G, R) triples; the FFT family has a single point (CUFFT
// exposes no launch knobs in the study). By default runs go through the
// block scheduler's time-varying power trace; Analytic returns a variant
// using the constant analytic profile instead.
type GPU struct {
	name     string
	dev      *gpusim.Device
	analytic bool
}

// NewGPU wraps a gpusim device under the given registry name, in traced
// (block-scheduler power profile) mode.
func NewGPU(name string, dev *gpusim.Device) (*GPU, error) {
	if name == "" {
		return nil, errors.New("device: GPU needs a name")
	}
	if dev == nil || dev.Spec == nil {
		return nil, errors.New("device: nil gpusim device")
	}
	return &GPU{name: name, dev: dev}, nil
}

// Name implements Device.
func (g *GPU) Name() string { return g.name }

// Kind implements Device.
func (g *GPU) Kind() string { return "gpu" }

// Spec implements Device.
func (g *GPU) Spec() Spec {
	return Spec{
		CatalogName: g.dev.Spec.Name,
		IdlePowerW:  g.dev.Spec.IdlePowerW,
		TDPWatts:    g.dev.Spec.TDPWatts,
	}
}

// Analytic implements AnalyticProvider: same device, constant analytic
// power profile instead of the scheduler trace.
func (g *GPU) Analytic() Device {
	return &GPU{name: g.name, dev: g.dev, analytic: true}
}

// GPUPoint is one dense-family configuration: the paper's three decision
// variables.
type GPUPoint struct {
	C gpusim.MatMulConfig
}

// Key implements Config, e.g. "bs=24/g=1/r=8".
func (p GPUPoint) Key() string {
	return fmt.Sprintf("bs=%d/g=%d/r=%d", p.C.BS, p.C.G, p.C.R)
}

// String implements Config with the paper's notation.
func (p GPUPoint) String() string { return p.C.String() }

// FFTPoint is the single configuration of the GPU FFT family.
type FFTPoint struct{}

// Key implements Config.
func (FFTPoint) Key() string { return "fft" }

// String implements Config.
func (FFTPoint) String() string { return "(fft)" }

// SpMVPoint is one SpMV-family configuration: the CSR-vector lane count.
type SpMVPoint struct {
	Lanes int
}

// Key implements Config, e.g. "lanes=8".
func (p SpMVPoint) Key() string { return fmt.Sprintf("lanes=%d", p.Lanes) }

// String implements Config.
func (p SpMVPoint) String() string { return fmt.Sprintf("(lanes=%d)", p.Lanes) }

// StencilPoint is one stencil-family configuration: the shared-memory
// tile edge.
type StencilPoint struct {
	Tile int
}

// Key implements Config, e.g. "tile=16".
func (p StencilPoint) Key() string { return fmt.Sprintf("tile=%d", p.Tile) }

// String implements Config.
func (p StencilPoint) String() string { return fmt.Sprintf("(tile=%d)", p.Tile) }

// CompoundPoint is the single configuration of the compound family: one
// SpMV at the canonical lane count followed by one stencil sweep at the
// canonical tile.
type CompoundPoint struct{}

// Key implements Config.
func (CompoundPoint) Key() string { return "compound" }

// String implements Config.
func (CompoundPoint) String() string { return "(spmv+stencil)" }

// Configs implements Device.
func (g *GPU) Configs(w Workload) ([]Config, error) {
	f, w, err := lookup(w)
	if err != nil {
		return nil, err
	}
	if w.N < f.gpuMinN {
		return nil, fmt.Errorf("device: %s %s size %d must be >= %d", g.name, w.App, w.N, f.gpuMinN)
	}
	out, err := f.gpuSpace(g.dev, w)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("device: %s admits no configurations for %v", g.name, w)
	}
	return out, nil
}

// Run implements Device. Products instances of the non-dense families
// run back to back.
func (g *GPU) Run(ctx context.Context, w Workload, c Config) (*Outcome, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	f, w, err := lookup(w)
	if err != nil {
		return nil, err
	}
	if f.gpu == nil {
		return g.runDense(w, c)
	}
	if reflect.TypeOf(c) != reflect.TypeOf(f.unit) {
		return nil, configMismatch(g, c)
	}
	ps, err := f.gpu(g.dev, w.N, c)
	if err != nil {
		return nil, err
	}
	return ps.outcome(w.Products, g.dev.Spec.IdlePowerW), nil
}

// runDense runs the paper's batched matmul: all Products instances in
// one RunMatMul, traced through the block scheduler unless analytic.
func (g *GPU) runDense(w Workload, c Config) (*Outcome, error) {
	p, ok := c.(GPUPoint)
	if !ok {
		return nil, configMismatch(g, c)
	}
	idle := g.dev.Spec.IdlePowerW
	mw := gpusim.MatMulWorkload{N: w.N, Products: w.Products}
	if g.analytic {
		r, err := g.dev.RunMatMul(mw, p.C)
		if err != nil {
			return nil, err
		}
		return &Outcome{TrueSeconds: r.Seconds, TrueEnergyJ: r.DynEnergyJ, Run: r.Run(idle)}, nil
	}
	tr, err := g.dev.RunMatMulTraced(mw, p.C)
	if err != nil {
		return nil, err
	}
	return &Outcome{TrueSeconds: tr.TraceSeconds, TrueEnergyJ: tr.TraceEnergyJ, Run: tr.Run(idle)}, nil
}
