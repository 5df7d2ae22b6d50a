package device

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"energyprop/internal/hetero"
	"energyprop/internal/hw"
	"energyprop/internal/meter"
)

// maxHeteroProcs bounds the ensemble size so a distribution point can be
// a comparable fixed-size value (usable as a map key).
const maxHeteroProcs = 4

// Hetero adapts a CPU+GPU ensemble. Its decision variables are the
// workload distributions: every way of splitting the workload's Products
// units across the ensemble's processors (the discrete space the
// bi-objective distribution solver in internal/optimize searches). The
// processors run their shares concurrently, so a point's time is the
// slowest processor and its energy is the sum.
type Hetero struct {
	name    string
	catalog string
	idleW   float64
	labels  []string
	procs   []hetero.Processor
}

// NewPaperHetero builds the paper's Fig 1 ensemble — the Haswell node,
// the K40c, and the P100 of hetero.PaperPlatform — as a single
// measurable device. Its simulators are built once, here.
func NewPaperHetero(name string) *Hetero {
	return &Hetero{
		name:    name,
		catalog: "Haswell + K40c + P100 (Fig 1 ensemble)",
		idleW:   hw.Haswell().IdlePowerW + hw.K40c().IdlePowerW + hw.P100().IdlePowerW,
		labels:  []string{"haswell", "k40c", "p100"},
		procs:   hetero.PaperPlatform(0),
	}
}

// runUnits solves units units of family f at size unitN on ensemble
// processor p. Dgemm runs through p itself; every other family runs the
// table's kernels at the ensemble knobs: p's threadgroup decomposition
// on the CPU, the family's unit point on a GPU.
func runUnits(p hetero.Processor, f *family, unitN, units int) (float64, float64, error) {
	var ps phases
	var err error
	switch p := p.(type) {
	case *hetero.CPUProcessor:
		if f.unit == nil {
			cpu := *p
			cpu.UnitN = unitN
			return cpu.RunUnits(units)
		}
		ps, err = f.cpu(p.Machine, unitN, p.Config)
	case *hetero.GPUProcessor:
		if f.unit == nil {
			gpu := *p
			gpu.UnitN = unitN
			return gpu.RunUnits(units)
		}
		ps, err = f.gpu(p.Device, unitN, f.unit)
	default:
		return 0, 0, fmt.Errorf("device: unsupported ensemble processor %s", p.Name())
	}
	if err != nil {
		return 0, 0, err
	}
	secs, energy := ps.times(units)
	return secs, energy, nil
}

// Name implements Device.
func (h *Hetero) Name() string { return h.name }

// Kind implements Device.
func (h *Hetero) Kind() string { return "hetero" }

// Spec implements Device.
func (h *Hetero) Spec() Spec {
	return Spec{CatalogName: h.catalog, IdlePowerW: h.idleW}
}

// HeteroPoint is one workload distribution: Units[i] units on processor
// Labels[i], for i < NP.
type HeteroPoint struct {
	Units  [maxHeteroProcs]int
	Labels [maxHeteroProcs]string
	NP     int
}

// Key implements Config, e.g. "haswell=2/k40c=3/p100=3".
func (p HeteroPoint) Key() string {
	parts := make([]string, p.NP)
	for i := 0; i < p.NP; i++ {
		parts[i] = fmt.Sprintf("%s=%d", p.Labels[i], p.Units[i])
	}
	return strings.Join(parts, "/")
}

// String implements Config, e.g. "(haswell=2, k40c=3, p100=3)".
func (p HeteroPoint) String() string {
	return "(" + strings.ReplaceAll(p.Key(), "/", ", ") + ")"
}

// family looks up the workload's family and rejects those the ensemble
// cannot distribute.
func (h *Hetero) family(w Workload) (*family, Workload, error) {
	f, w, err := lookup(w)
	if err == nil && !f.ensemble {
		err = fmt.Errorf("device: %s cannot distribute the %s family (no per-unit knob)", h.name, w.App)
	}
	return f, w, err
}

// Configs implements Device: every composition of w.Products units over
// the ensemble's processors, in lexicographic order. The workload is
// validated by probing each processor with one unit, so a size no
// processor can run surfaces here as an error rather than mid-campaign.
func (h *Hetero) Configs(w Workload) ([]Config, error) {
	f, w, err := h.family(w)
	if err != nil {
		return nil, err
	}
	for i, p := range h.procs {
		if _, _, err := runUnits(p, f, w.N, 1); err != nil {
			return nil, fmt.Errorf("device: %s processor %s cannot run N=%d: %w", h.name, h.labels[i], w.N, err)
		}
	}
	var out []Config
	var units [maxHeteroProcs]int
	var labels [maxHeteroProcs]string
	copy(labels[:], h.labels)
	np := len(h.labels)
	var emit func(i, left int)
	emit = func(i, left int) {
		if i == np-1 {
			units[i] = left
			out = append(out, HeteroPoint{Units: units, Labels: labels, NP: np})
			return
		}
		for u := 0; u <= left; u++ {
			units[i] = u
			emit(i+1, left-u)
		}
	}
	emit(0, w.Products)
	return out, nil
}

// Run implements Device: each processor solves its share concurrently;
// the point's time is the slowest share, its energy the sum, and its
// power profile a staircase stepping down as processors finish.
func (h *Hetero) Run(ctx context.Context, w Workload, c Config) (*Outcome, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	f, w, err := h.family(w)
	if err != nil {
		return nil, err
	}
	p, ok := c.(HeteroPoint)
	if !ok || p.NP != len(h.procs) {
		return nil, configMismatch(h, c)
	}
	total := 0
	for i := 0; i < p.NP; i++ {
		total += p.Units[i]
	}
	if total != w.Products {
		return nil, fmt.Errorf("device: distribution %v sums to %d units, workload has %d", c, total, w.Products)
	}
	type share struct{ seconds, powerW float64 }
	var shares []share
	var sumEnergy float64
	for i, proc := range h.procs {
		if p.Units[i] == 0 {
			continue
		}
		secs, energy, err := runUnits(proc, f, w.N, p.Units[i])
		if err != nil {
			return nil, fmt.Errorf("device: %s processor %s: %w", h.name, h.labels[i], err)
		}
		if secs <= 0 {
			return nil, fmt.Errorf("device: %s processor %s reported non-positive time", h.name, h.labels[i])
		}
		shares = append(shares, share{seconds: secs, powerW: energy / secs})
		sumEnergy += energy
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("device: distribution %v assigns no units", c)
	}
	// Staircase: between consecutive finish times the active set is the
	// shares still running.
	sort.Slice(shares, func(i, j int) bool { return shares[i].seconds < shares[j].seconds })
	run := &meter.SegmentRun{}
	prev := 0.0
	for i, s := range shares {
		if s.seconds > prev {
			active := 0.0
			for _, rest := range shares[i:] {
				active += rest.powerW
			}
			run.AddSegment(s.seconds-prev, h.idleW+active)
			prev = s.seconds
		}
	}
	return &Outcome{TrueSeconds: shares[len(shares)-1].seconds, TrueEnergyJ: sumEnergy, Run: run}, nil
}
