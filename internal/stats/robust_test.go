package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// MAD returns the median absolute deviation (scaled by 1.4826 so it
// estimates the standard deviation of normal data).
func MAD(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: empty input")
	}
	med := NewSample(xs...).Median()
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return 1.4826 * NewSample(devs...).Median(), nil
}

// RejectOutliers returns the observations within k MADs of the median
// (k = 3 is customary) and the number rejected. Constant data is returned
// unchanged. It is the batch oracle for Measure's incremental rejection.
func RejectOutliers(xs []float64, k float64) (kept []float64, rejected int, err error) {
	if len(xs) == 0 {
		return nil, 0, errors.New("stats: empty input")
	}
	if k <= 0 {
		return nil, 0, errors.New("stats: k must be positive")
	}
	mad, err := MAD(xs)
	if err != nil {
		return nil, 0, err
	}
	if mad == 0 {
		return append([]float64(nil), xs...), 0, nil
	}
	med := NewSample(xs...).Median()
	for _, x := range xs {
		if math.Abs(x-med) <= k*mad {
			kept = append(kept, x)
		} else {
			rejected++
		}
	}
	if len(kept) == 0 {
		return nil, 0, errors.New("stats: every observation rejected")
	}
	return kept, rejected, nil
}

func TestMAD(t *testing.T) {
	// Normal data: MAD estimates the standard deviation.
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()*2
	}
	mad, err := MAD(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mad-2) > 0.15 {
		t.Errorf("MAD = %v, want ~2", mad)
	}
	if _, err := MAD(nil); err == nil {
		t.Error("empty: want error")
	}
}

func TestRejectOutliers(t *testing.T) {
	xs := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 35} // one spike
	kept, rejected, err := RejectOutliers(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 || len(kept) != 6 {
		t.Errorf("rejected %d kept %d, want 1/6", rejected, len(kept))
	}
	for _, x := range kept {
		if x > 30 {
			t.Error("spike survived rejection")
		}
	}
	// Constant data: nothing rejected.
	kept, rejected, err = RejectOutliers([]float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 || len(kept) != 3 {
		t.Error("constant data must pass through")
	}
	if _, _, err := RejectOutliers(nil, 3); err == nil {
		t.Error("empty: want error")
	}
	if _, _, err := RejectOutliers(xs, 0); err == nil {
		t.Error("k=0: want error")
	}
}

func TestRobustPipelineRecoversCleanMean(t *testing.T) {
	// 5% of samples are 1.3x spikes (the meter's SSD/fan model); outlier
	// rejection recovers the clean mean far better than the raw mean.
	rng := rand.New(rand.NewSource(8))
	const clean = 200.0
	xs := make([]float64, 500)
	for i := range xs {
		x := clean * (1 + rng.NormFloat64()*0.01)
		if rng.Float64() < 0.05 {
			x *= 1.3
		}
		xs[i] = x
	}
	raw := NewSample(xs...).Mean()
	kept, _, err := RejectOutliers(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	robust := NewSample(kept...).Mean()
	if math.Abs(robust-clean) >= math.Abs(raw-clean) {
		t.Errorf("robust mean %v not closer to %v than raw %v", robust, clean, raw)
	}
	if math.Abs(robust-clean)/clean > 0.005 {
		t.Errorf("robust mean %v more than 0.5%% off", robust)
	}
}

// TestMeasureRejectionMatchesOracle checks that the measurement loop's
// incremental rejection (measureState.effective) keeps exactly what a
// batch RejectOutliers over the raw draws keeps, in the same order and
// bit for bit, across random specs and spike-contaminated observables.
func TestMeasureRejectionMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := MeasureSpec{
			Confidence:      []float64{0.9, 0.95, 0.99}[rng.Intn(3)],
			Precision:       0.002 + 0.05*rng.Float64(),
			MinRuns:         5 + rng.Intn(20),
			RejectOutliersK: 0.5 + 4*rng.Float64(),
		}
		spec.MaxRuns = spec.MinRuns + rng.Intn(80)
		spikeP, noise := 0.3*rng.Float64(), 0.05*rng.Float64()
		quantized := rng.Intn(4) == 0 // ties, including MAD = 0
		var raw []float64
		m, err := Measure(spec, func() (float64, error) {
			x := 100 * (1 + noise*rng.NormFloat64())
			if rng.Float64() < spikeP {
				x *= 1 + rng.Float64()
			}
			if quantized {
				x = math.Round(x / 10)
			}
			raw = append(raw, x)
			return x, nil
		})
		if err != nil && !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, rejected, oerr := RejectOutliers(raw, spec.RejectOutliersK)
		if oerr != nil || rejected == 0 {
			want, rejected = raw, 0 // nothing (or everything) rejected: the whole raw sample
		}
		got := m.Sample.Values()
		if m.Rejected != rejected || len(got) != len(want) {
			t.Fatalf("seed %d: Measure kept %d rejected %d, oracle kept %d rejected %d",
				seed, len(got), m.Rejected, len(want), rejected)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: observation %d = %v, oracle %v", seed, i, got[i], want[i])
			}
		}
	}
}
