package device

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energyprop/internal/meter"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// outcomeDevices returns every registered device plus the analytic
// variant of each device that offers one, labelled "<name>/analytic".
func outcomeDevices(t *testing.T) (labels []string, devs []Device) {
	t.Helper()
	for _, name := range List() {
		d := openT(t, name)
		labels, devs = append(labels, name), append(devs, d)
		if ap, ok := d.(AnalyticProvider); ok {
			labels, devs = append(labels, name+"/analytic"), append(devs, ap.Analytic())
		}
	}
	return labels, devs
}

// TestOutcomesGolden pins every backend × family outcome bit for bit:
// each admitted configuration's key, true time, true dynamic energy and
// the exact integral of its power profile, as Float64bits in hex. A
// rejected combination records only that it was rejected, so the error
// wording is free to change. Regenerate with -update only when a model
// change is intended.
func TestOutcomesGolden(t *testing.T) {
	var b strings.Builder
	labels, devs := outcomeDevices(t)
	for i, d := range devs {
		for _, app := range Apps() {
			for _, w := range []Workload{
				{App: app, N: 64, Products: 2}, {App: app, N: 512, Products: 2},
				// Three instances: scaling by a non-power of two makes
				// the order of the sums and products visible.
				{App: app, N: 512, Products: 3},
			} {
				fmt.Fprintf(&b, "%s %s\n", labels[i], w)
				configs, err := d.Configs(w)
				if err != nil {
					b.WriteString("  rejected\n")
					continue
				}
				for _, c := range configs {
					out, err := d.Run(context.Background(), w, c)
					if err != nil {
						t.Fatalf("%s %v %v: %v", labels[i], w, c, err)
					}
					fmt.Fprintf(&b, "  %s %x %x %x\n", c.Key(),
						math.Float64bits(out.TrueSeconds),
						math.Float64bits(out.TrueEnergyJ),
						math.Float64bits(meter.TrueEnergy(out.Run)))
				}
			}
		}
	}
	path := filepath.Join("testdata", "outcomes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for j := 0; j < min(len(gl), len(wl)); j++ {
			if gl[j] != wl[j] {
				t.Fatalf("outcomes differ from %s at line %d (regenerate with -update if intended)\ngot:  %s\nwant: %s",
					path, j+1, gl[j], wl[j])
			}
		}
		t.Fatalf("outcomes differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
