package campaign

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/pareto"
	"energyprop/internal/store"
)

// smallWorkload keeps campaign tests fast: few configurations.
func smallWorkload() device.Workload {
	return device.Workload{N: 4096, Products: 2}
}

// openDev opens a registered device or fails the test.
func openDev(t testing.TB, name string) device.Device {
	t.Helper()
	d, err := device.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// configByKey picks one enumerated configuration by its canonical key.
func configByKey(t testing.TB, dev device.Device, w device.Workload, key string) device.Config {
	t.Helper()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		if c.Key() == key {
			return c
		}
	}
	t.Fatalf("no config %q on %s", key, dev.Name())
	return nil
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, smallWorkload(), DefaultSpec(1)); err == nil {
		t.Error("nil device: want error")
	}
	spec := DefaultSpec(1)
	spec.NoiseFrac = -1
	if _, err := Run(openDev(t, "p100"), smallWorkload(), spec); err == nil {
		t.Error("negative noise: want error")
	}
	if _, err := Run(openDev(t, "p100"), device.Workload{N: 0, Products: 1}, DefaultSpec(1)); err == nil {
		t.Error("bad workload: want error")
	}
}

// runCounter counts device runs, so a test can tell a spec rejected up
// front from one that failed after measuring.
type runCounter struct {
	device.Device
	runs atomic.Int64
}

func (d *runCounter) Run(ctx context.Context, w device.Workload, c device.Config) (*device.Outcome, error) {
	d.runs.Add(1)
	return d.Device.Run(ctx, w, c)
}

// TestRunRejectsBadMeterSettings: a NaN noise or spike probability used
// to switch the meter's noise or spikes off silently, a spike
// probability above 1 spiked every sample, and infinite noise failed
// only after measuring. Each must be refused before any device run.
func TestRunRejectsBadMeterSettings(t *testing.T) {
	w := device.Workload{N: 512, Products: 1}
	cases := []struct {
		name         string
		noise, spike float64
	}{
		{"NaN noise", math.NaN(), 0},
		{"+Inf noise", math.Inf(1), 0},
		{"-Inf noise", math.Inf(-1), 0},
		{"negative noise", -0.01, 0},
		{"NaN spikes", 0.01, math.NaN()},
		{"negative spikes", 0.01, -1},
		{"spikes above 1", 0.01, 2},
		{"+Inf spikes", 0.01, math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := &runCounter{Device: openDev(t, "haswell")}
			spec := DefaultSpec(1)
			spec.NoiseFrac, spec.SpikeProb = tc.noise, tc.spike
			if _, err := Run(dev, w, spec); err == nil {
				t.Fatalf("noise %v, spikes %v: want an error", tc.noise, tc.spike)
			}
			if n := dev.runs.Load(); n != 0 {
				t.Errorf("noise %v, spikes %v: %d device runs before the spec was refused, want 0", tc.noise, tc.spike, n)
			}
		})
	}
}

func TestCampaignMeasuresAccurately(t *testing.T) {
	res, err := Run(openDev(t, "p100"), smallWorkload(), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	if res.TotalRuns < len(res.Points)*2 {
		t.Error("each point needs repeated runs")
	}
	for _, p := range res.Points {
		rel := math.Abs(p.MeasuredEnergyJ-p.TrueEnergyJ) / p.TrueEnergyJ
		if rel > 0.05 {
			t.Errorf("%v: measured %.1fJ vs true %.1fJ (%.1f%% off)",
				p.Config, p.MeasuredEnergyJ, p.TrueEnergyJ, 100*rel)
		}
		if p.Runs < 2 {
			t.Errorf("%v: %d runs, want >= 2", p.Config, p.Runs)
		}
	}
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	dev := openDev(t, "p100")
	a, err := Run(dev, smallWorkload(), DefaultSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(dev, smallWorkload(), DefaultSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].MeasuredEnergyJ != b.Points[i].MeasuredEnergyJ {
			t.Fatal("same seed must reproduce measurements")
		}
	}
	c, err := Run(dev, smallWorkload(), DefaultSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if a.Points[i].MeasuredEnergyJ != c.Points[i].MeasuredEnergyJ {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestCampaignAnalyticMode(t *testing.T) {
	// The analytic (constant-power) profile is the untraced mode: campaigns
	// run on it through the same engine via the AnalyticProvider variant.
	ap, ok := openDev(t, "k40c").(device.AnalyticProvider)
	if !ok {
		t.Fatal("k40c does not provide an analytic variant")
	}
	res, err := Run(ap.Analytic(), smallWorkload(), DefaultSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
}

func TestMeasuredFrontMatchesTrueFront(t *testing.T) {
	// The methodology's point: measured values must support the same
	// bi-objective conclusions as the ground truth.
	w := device.Workload{N: 10240, Products: 8}
	res, err := Run(openDev(t, "p100"), w, DefaultSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	var measured, truth []pareto.Point
	for _, p := range res.Points {
		measured = append(measured, pareto.Point{
			Label: p.Config.String(), Time: p.TrueSeconds, Energy: p.MeasuredEnergyJ})
		truth = append(truth, pareto.Point{
			Label: p.Config.String(), Time: p.TrueSeconds, Energy: p.TrueEnergyJ})
	}
	mf, tf := pareto.Front(measured), pareto.Front(truth)
	if d := len(mf) - len(tf); d < -1 || d > 1 {
		t.Errorf("measured front %d points vs true front %d", len(mf), len(tf))
	}
	mBest, err := pareto.BestTradeOff(mf)
	if err != nil {
		t.Fatal(err)
	}
	tBest, err := pareto.BestTradeOff(tf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mBest.EnergySavingPct-tBest.EnergySavingPct) > 5 {
		t.Errorf("measured best saving %.1f%% vs true %.1f%%",
			mBest.EnergySavingPct, tBest.EnergySavingPct)
	}
}

func TestCampaignRobustToSpikes(t *testing.T) {
	// With 3% transient spikes per sample, the robust pipeline (MAD
	// rejection over the per-run energies) stays close to the truth.
	spec := DefaultSpec(13)
	spec.SpikeProb = 0.03
	spec.Measure.RejectOutliersK = 3
	spec.Measure.MinRuns = 8
	res, err := Run(openDev(t, "p100"), smallWorkload(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		rel := math.Abs(p.MeasuredEnergyJ-p.TrueEnergyJ) / p.TrueEnergyJ
		if rel > 0.08 {
			t.Errorf("%v: measured %.1f vs true %.1f (%.1f%% off) under spikes",
				p.Config, p.MeasuredEnergyJ, p.TrueEnergyJ, 100*rel)
		}
	}
}

func TestCampaignRecordRoundTrip(t *testing.T) {
	res, err := Run(openDev(t, "k40c"), smallWorkload(), DefaultSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := res.Record()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "gpu" {
		t.Errorf("record kind %q, want gpu", rec.Kind)
	}
	var buf bytes.Buffer
	if err := store.SaveCampaign(&buf, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(res.Points) {
		t.Error("record round trip lost points")
	}
	empty := &Result{}
	if _, err := empty.Record(); err == nil {
		t.Error("empty result: want error")
	}
}
