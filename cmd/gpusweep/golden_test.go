package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestSweepGoldenCSV locks the 4-column CSV byte-for-byte against
// committed goldens: the sweep output is a pure function of (device,
// workload) — and, with faults, of the plan seed — so any byte drift is
// either a deliberate format change (regenerate with -update) or a
// determinism regression.
func TestSweepGoldenCSV(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sweep_p100_n1024_p2.golden.csv",
			[]string{"-device", "p100", "-n", "1024", "-products", "2"}},
		{"sweep_p100_n1024_p2_faults.golden.csv",
			[]string{"-device", "p100", "-n", "1024", "-products", "2",
				"-faults", "seed=7,transient=0.6", "-retries", "4"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out, stderr, code := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, out, want)
			}
		})
	}
}

// TestSweepGoldenJSON locks the -json record byte-for-byte, so the
// persisted campaign format is held to the same standard as the CSV: a
// plain sweep, and a fault-injected one whose record carries a "failed"
// section with attempt counts.
func TestSweepGoldenJSON(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sweep_p100_n1024_p2.golden.json",
			[]string{"-device", "p100", "-n", "1024", "-products", "2"}},
		{"sweep_p100_n1024_p2_faults.golden.json",
			[]string{"-device", "p100", "-n", "1024", "-products", "2",
				"-faults", "seed=7,transient=0.6", "-retries", "4"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "sweep.json")
			if _, stderr, code := runCLI(t, append(tc.args, "-json", out)...); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("record differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
