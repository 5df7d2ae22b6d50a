package device

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"energyprop/internal/hetero"
	"energyprop/internal/meter"
)

// TestHeteroStaircaseProperties runs seeded random distributions of
// every family the ensemble admits and checks that the outcome accounts
// exactly for the processors' shares: the staircase lasts TrueSeconds,
// its dynamic energy is TrueEnergyJ, each step's power is idle plus the
// shares still running, and TrueEnergyJ is the exact sum of the
// processors' unit energies.
func TestHeteroStaircaseProperties(t *testing.T) {
	h := NewPaperHetero("hetero")
	idle := h.Spec().IdlePowerW
	rng := rand.New(rand.NewSource(20220530))
	for _, app := range Apps() {
		f := familyOf(app)
		if _, err := h.Configs(Workload{App: app, N: 256}); (err == nil) != f.ensemble {
			t.Fatalf("%s: Configs error %v, family ensemble=%v", app, err, f.ensemble)
		}
		if !f.ensemble {
			continue
		}
		for trial := 0; trial < 12; trial++ {
			w := Workload{App: app, N: 64 * (4 + rng.Intn(13)), Products: 1 + rng.Intn(9)}
			configs, err := h.Configs(w)
			if err != nil {
				t.Fatalf("%v: %v", w, err)
			}
			p := configs[rng.Intn(len(configs))].(HeteroPoint)
			out, err := h.Run(context.Background(), w, p)
			if err != nil {
				t.Fatalf("%v %v: %v", w, p, err)
			}
			checkStaircase(t, h, f, w, p, out, idle)
		}
	}
}

func checkStaircase(t *testing.T, h *Hetero, f *family, w Workload, p HeteroPoint, out *Outcome, idle float64) {
	t.Helper()
	type share struct{ seconds, powerW float64 }
	var shares []share
	sumEnergy := 0.0
	for i, proc := range h.procs {
		if p.Units[i] == 0 {
			continue
		}
		secs, energy, err := runUnits(proc, f, w.N, p.Units[i])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, share{secs, energy / secs})
		sumEnergy += energy
	}
	if out.TrueEnergyJ != sumEnergy {
		t.Errorf("%v %v: TrueEnergyJ %v, processors sum to %v", w, p, out.TrueEnergyJ, sumEnergy)
	}
	if d := math.Abs(out.Run.Duration() - out.TrueSeconds); d > 1e-12*out.TrueSeconds {
		t.Errorf("%v %v: segments last %v, TrueSeconds %v", w, p, out.Run.Duration(), out.TrueSeconds)
	}
	// Σ seconds·(power − idle) over the segments.
	dyn := meter.TrueEnergy(out.Run) - idle*out.Run.Duration()
	if math.Abs(dyn-out.TrueEnergyJ) > 1e-9*out.TrueEnergyJ {
		t.Errorf("%v %v: staircase dynamic energy %v, TrueEnergyJ %v", w, p, dyn, out.TrueEnergyJ)
	}
	// Between consecutive finish times the node draws idle plus every
	// share still running.
	sort.Slice(shares, func(i, j int) bool { return shares[i].seconds < shares[j].seconds })
	prev := 0.0
	for i, s := range shares {
		if s.seconds <= prev {
			continue
		}
		want := idle
		for _, rest := range shares[i:] {
			want += rest.powerW
		}
		if got := out.Run.PowerAt((prev + s.seconds) / 2); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v %v: power %v in step ending at %v, want %v", w, p, got, s.seconds, want)
		}
		prev = s.seconds
	}
}

// TestHeteroDgemmMatchesPaperPlatform checks that the ensemble's dgemm
// units, on simulators built once, cost exactly what freshly built
// hetero.PaperPlatform processors report.
func TestHeteroDgemmMatchesPaperPlatform(t *testing.T) {
	h := NewPaperHetero("hetero")
	f := familyOf(AppDense)
	for _, n := range []int{256, 1024} {
		fresh := hetero.PaperPlatform(n)
		for i, proc := range h.procs {
			for units := 0; units <= 3; units++ {
				gs, ge, err := runUnits(proc, f, n, units)
				if err != nil {
					t.Fatal(err)
				}
				ws, we, err := fresh[i].RunUnits(units)
				if err != nil {
					t.Fatal(err)
				}
				if gs != ws || ge != we {
					t.Errorf("%s N=%d x%d: (%v, %v), fresh processor (%v, %v)", h.labels[i], n, units, gs, ge, ws, we)
				}
			}
		}
	}
}
