package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenOutputs locks down the rendered output of the fully
// deterministic experiments: any unintended change to the catalog, the
// theorem math, or the table renderer shows up as a golden diff. The
// CPU-model experiments (dvfs, cpumodel, fig4) are pinned so the
// zero-alloc scratch/caching refactor of the cpusim hot path is provably
// output-neutral: their goldens were generated from the pre-refactor
// implementation and must stay byte-identical. The scheduler table pins
// each policy's deadline misses and total time and energy per device.
// Regenerate intentionally with: go test ./internal/experiment -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	for _, id := range []string{"table1", "theory", "dvfs", "cpumodel", "fig4", "scheduler"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := e.Run(Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(tables)
			path := filepath.Join("testdata", "golden", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s; run with -update if intentional\ngot:\n%s", path, got)
			}
		})
	}
}
