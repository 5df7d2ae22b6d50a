// Package campaign runs full measurement campaigns the way the paper's
// experiments were actually conducted: every configuration of a workload
// is executed on a device (GPU, CPU, or heterogeneous ensemble — any
// backend behind the internal/device interface), sampled by the
// WattsUp-style meter with noise, and repeated until the paper's
// statistical criterion is met (95% confidence, 2.5% precision),
// producing a persistable record of *measured* — not model-true — values.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"

	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/fleet"
	"energyprop/internal/meter"
	"energyprop/internal/parallel"
	"energyprop/internal/stats"
	"energyprop/internal/store"
)

// Spec configures a campaign.
type Spec struct {
	// Measure is the statistical criterion per data point; zero value
	// means the paper's default.
	Measure stats.MeasureSpec
	// NoiseFrac is the meter's per-sample noise (default 1%).
	NoiseFrac float64
	// SpikeProb injects per-sample transient disturbances (SSD/fan
	// events) with the given probability; pair with
	// Measure.RejectOutliersK for the robust pipeline.
	SpikeProb float64
	// Seed drives the meter noise deterministically. Each configuration's
	// meter seed is device.ConfigSeed(Seed, config) — a pure function of
	// the campaign seed and the configuration's canonical key, so a
	// point's measurement is independent of sweep order, worker count,
	// and backend.
	Seed int64
	// Workers bounds the number of configurations measured concurrently.
	// 0 (or negative) selects runtime.GOMAXPROCS; 1 forces the serial
	// reference path. Any worker count produces identical records.
	Workers int
	// Cache, if non-nil, memoizes measured points across campaigns:
	// before dispatching a configuration to the worker pool, the engine
	// consults the cache under the point's canonical digest (device
	// identity, workload, config key, seed, and every statistical knob
	// above). Because a point is a pure function of that tuple, cached
	// and uncached campaigns are byte-identical; concurrent campaigns
	// asking for the same point collapse to one device run
	// (singleflight). Share one cache across campaigns only for devices
	// opened fresh from the device registry — see PointCache.
	Cache *PointCache
	// Retry bounds re-measurement of a failing point: a transient device
	// error or a corrupt meter sample burns one attempt and the point is
	// re-measured from a fresh meter (seeded, as always, by
	// device.ConfigSeed), so a recovered point is byte-identical to one
	// that succeeded first try. The zero value means one attempt (no
	// retries); retries are immediate.
	Retry fault.RetryPolicy
	// ContinueOnError degrades gracefully instead of aborting: a point
	// that exhausts its retry budget is recorded in Result.Failed with
	// its error, and the campaign carries on measuring the rest. Context
	// cancellation still aborts the whole sweep — a gone caller is not a
	// point failure.
	ContinueOnError bool
	// Fleet, if non-nil, shards the campaign across the coordinator's
	// simulated nodes, each point measured on its hosting node's device
	// instance. Nil means the in-process pool bounded by Workers. The
	// outcome bytes are identical either way — a point is a pure
	// function of (Seed, config), so the fan-out shapes wall-clock and
	// fault tolerance, never results. Node devices must share the
	// campaign device's measurement identity (registry name, kind,
	// catalog spec), or the records will differ.
	Fleet *fleet.Coordinator
}

// DefaultSpec returns the paper's methodology with 1% meter noise.
func DefaultSpec(seed int64) Spec {
	m := stats.DefaultMeasureSpec()
	m.CheckNormality = false // per-point χ² is run by the methodology experiment
	return Spec{Measure: m, NoiseFrac: 0.01, Seed: seed}
}

// PointOutcome is one configuration's terminal outcome: either a
// measured report or a recorded failure (when the spec degrades
// gracefully). Exactly one of the two is set.
type PointOutcome struct {
	Report  PointReport
	Failure *PointFailure
}

// PointReport is one configuration's measured outcome.
type PointReport struct {
	Config device.Config
	// TrueSeconds and TrueEnergyJ are the model's ground truth.
	TrueSeconds, TrueEnergyJ float64
	// MeasuredEnergyJ is the converged sample mean of dynamic energy.
	MeasuredEnergyJ float64
	// HalfWidthJ is the confidence half-width at convergence.
	HalfWidthJ float64
	// Runs is the number of repetitions the criterion required.
	Runs int
	// Attempts is how many measurement attempts this point consumed
	// (1 = succeeded first try). Attempt accounting is provenance, not
	// measurement: the measured values of a point are identical whatever
	// Attempts says.
	Attempts int
}

// PointFailure is one configuration a degrading campaign gave up on.
type PointFailure struct {
	Config device.Config
	// Attempts is the retry budget consumed before giving up.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// Result is the campaign outcome.
type Result struct {
	// Device is the hardware catalog name; Kind its backend class.
	Device   string
	Kind     string
	Workload device.Workload
	Points   []PointReport
	// Failed lists the points that exhausted their retry budget when the
	// spec's ContinueOnError is set; analysis (fronts, trade-offs) runs
	// over the surviving Points.
	Failed []PointFailure
	// TotalRuns sums the repetitions across configurations — the
	// campaign's cost, which is what makes exhaustive global fronts
	// "expensive and may not be feasible in dynamic environments" (paper
	// Section V.B).
	TotalRuns int
}

// Run sweeps every valid configuration of the workload on the device
// under the campaign spec, fanning the configurations out across
// spec.Workers goroutines. Use RunContext to cancel a campaign mid-sweep.
func Run(dev device.Device, w device.Workload, spec Spec) (*Result, error) {
	return RunContext(context.Background(), dev, w, spec)
}

// RunContext is Run with cancellation: a cancelled context stops the
// worker pool between configurations and returns ctx.Err().
func RunContext(ctx context.Context, dev device.Device, w device.Workload, spec Spec) (*Result, error) {
	if dev == nil {
		return nil, errors.New("campaign: nil device")
	}
	configs, err := dev.Configs(w)
	if err != nil {
		return nil, err
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("campaign: workload %v admits no configurations", w)
	}
	return RunConfigs(ctx, dev, w, configs, spec)
}

// RunConfigs measures an explicit configuration list (each valid for the
// workload) rather than the full enumeration — the entry point for
// re-measuring a front, resuming a partial campaign, single-point
// service measurements, and the order-independence tests. Points come
// back in the given order, but each point's measured value depends only
// on (spec.Seed, config), not on its position in the list or on
// spec.Workers.
func RunConfigs(ctx context.Context, dev device.Device, w device.Workload, configs []device.Config, spec Spec) (*Result, error) {
	if dev == nil {
		return nil, errors.New("campaign: nil device")
	}
	rs := NewResultSink(dev, w)
	if err := Stream(ctx, dev, w, configs, spec, rs); err != nil {
		return nil, err
	}
	return rs.Result(), nil
}

// Stream is the streaming core every campaign entry point rests on: it
// measures the explicit configuration list under the spec and delivers
// each outcome to sink in configuration order as completions allow,
// instead of materializing a result slice. The points fan out on the
// in-process pool (parallel.Each) or, when spec.Fleet is set, on the
// fleet (fleet.Each); both commit through a parallel.Ordered, so the
// sink sees exactly len(configs) Accept calls (one per configuration,
// in order, never concurrently) followed by one Flush. On any error —
// point, context, or sink — the campaign aborts, Flush is never called,
// and the error is returned. A streamed campaign's record is
// byte-identical to a materialized one on either fan-out.
func Stream(ctx context.Context, dev device.Device, w device.Workload, configs []device.Config, spec Spec, sink Sink) error {
	if dev == nil {
		return errors.New("campaign: nil device")
	}
	if sink == nil {
		return errNilSink
	}
	if spec.Measure.Confidence == 0 {
		spec.Measure = stats.DefaultMeasureSpec()
		spec.Measure.CheckNormality = false
	}
	// The meter treats a NaN noise or spike setting as off, spikes every
	// sample above probability 1, and fails infinite noise only after
	// measuring, so such specs are refused before any point runs.
	if !(spec.NoiseFrac >= 0) || math.IsInf(spec.NoiseFrac, 1) {
		return fmt.Errorf("campaign: noise fraction %v must be finite and non-negative", spec.NoiseFrac)
	}
	if !(spec.SpikeProb >= 0 && spec.SpikeProb <= 1) {
		return fmt.Errorf("campaign: spike probability %v is outside [0, 1]", spec.SpikeProb)
	}
	if len(configs) == 0 {
		return errors.New("campaign: no configurations")
	}
	w = w.Normalized()
	measure := func(ctx context.Context, dev device.Device, i int) (PointOutcome, error) {
		return outcome(ctx, dev, w, configs[i], spec)
	}
	commit := func(_ int, o PointOutcome) error { return sink.Accept(o) }
	var err error
	if spec.Fleet != nil {
		err = fleet.Each(ctx, spec.Fleet, len(configs), measure, commit)
	} else {
		err = parallel.Each(ctx, spec.Workers, len(configs), func(ctx context.Context, i int) (PointOutcome, error) {
			return measure(ctx, dev, i)
		}, commit)
	}
	if err != nil {
		return err
	}
	return sink.Flush()
}

// outcome measures one configuration on dev — the per-point unit of
// work both fan-outs run — under the spec's cache and retry policy, so
// a point measured on any device instance is byte-identical to the
// serial reference path. The returned error is non-nil only when the
// campaign must abort: a context error, or any failure when the spec
// does not degrade gracefully. A tolerated failure comes back as a
// PointOutcome recording the failure.
func outcome(ctx context.Context, dev device.Device, w device.Workload, c device.Config, spec Spec) (PointOutcome, error) {
	p, err := retriedPoint(ctx, dev, w, c, spec)
	if err != nil {
		if !spec.ContinueOnError || fault.IsContextErr(err) {
			return PointOutcome{}, err
		}
		return PointOutcome{Failure: &PointFailure{Config: c, Attempts: p.Attempts, Err: err}}, nil
	}
	return PointOutcome{Report: p}, nil
}

// retriedPoint measures one configuration under the spec's retry
// policy: each attempt runs the full cachedPoint path (device run, fresh
// meter, statistical loop), so a retry that succeeds reproduces the
// fault-free measurement bit-for-bit — the meter seed depends only on
// (spec.Seed, config), never on the attempt number.
func retriedPoint(ctx context.Context, dev device.Device, w device.Workload, c device.Config, spec Spec) (PointReport, error) {
	var p PointReport
	attempts, err := spec.Retry.Do(ctx, func(int) error {
		var aerr error
		p, aerr = cachedPoint(ctx, dev, w, c, spec)
		return aerr
	})
	if err != nil {
		return PointReport{Config: c, Attempts: attempts}, err
	}
	p.Attempts = attempts
	return p, nil
}

// cachedPoint measures one configuration through the spec's cache when
// one is attached: a stored point is returned as-is (it is bit-identical
// to a recomputation by construction), and concurrent requests for the
// same point deduplicate to one measurement. Without a cache it is
// exactly measurePoint.
func cachedPoint(ctx context.Context, dev device.Device, w device.Workload, c device.Config, spec Spec) (PointReport, error) {
	if spec.Cache == nil {
		return measurePoint(ctx, dev, w, c, spec)
	}
	p, _, err := spec.Cache.Do(pointKey(dev, w, c, spec), func() (PointReport, error) {
		return measurePoint(ctx, dev, w, c, spec)
	})
	return p, err
}

// measurePoint runs the paper's statistical loop for one configuration:
// the per-config unit of work the pool fans out. It builds its own meter
// (seeded from the config identity), so concurrent points share no
// mutable state.
func measurePoint(ctx context.Context, dev device.Device, w device.Workload, c device.Config, spec Spec) (PointReport, error) {
	out, err := dev.Run(ctx, w, c)
	if err != nil {
		return PointReport{}, err
	}
	m := meter.NewMeter(dev.Spec().IdlePowerW, device.ConfigSeed(spec.Seed, c))
	m.NoiseFrac = spec.NoiseFrac
	m.SpikeProb = spec.SpikeProb
	// Short kernels cannot be resolved at the WattsUp's 1 Hz: the real
	// methodology loops the kernel to stretch the run; equivalently we
	// sample at least 50 points per run.
	if d := out.Run.Duration(); d < 50 {
		m.SampleInterval = d / 50
	}
	meas, err := stats.Measure(spec.Measure, func() (float64, error) {
		rep, err := m.MeasureRun(out.Run)
		if err != nil {
			return 0, err
		}
		return rep.DynamicEnergyJ, nil
	})
	if err != nil {
		return PointReport{}, fmt.Errorf("campaign: config %v: %w", c, err)
	}
	return PointReport{
		Config:          c,
		TrueSeconds:     out.TrueSeconds,
		TrueEnergyJ:     out.TrueEnergyJ,
		MeasuredEnergyJ: meas.Mean,
		HalfWidthJ:      meas.HalfWidth,
		Runs:            meas.Runs,
	}, nil
}

// Record converts the campaign's measured values into a persistable
// device-generic record (measured energy, true time — matching how the
// paper measures kernel time with CUDA events but energy with the meter).
func (r *Result) Record() (*store.CampaignRecord, error) {
	if len(r.Points) == 0 && len(r.Failed) == 0 {
		return nil, errors.New("campaign: empty result")
	}
	rec := &store.CampaignRecord{
		Version:  store.FormatVersion,
		Device:   r.Device,
		Kind:     r.Kind,
		Workload: r.Workload,
	}
	for _, p := range r.Points {
		rec.Results = append(rec.Results, measuredPoint(p))
	}
	for _, f := range r.Failed {
		rec.Failed = append(rec.Failed, failedPoint(f))
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// measuredPoint maps a measured point to its record entry: measured
// energy with model-true time.
func measuredPoint(p PointReport) store.MeasuredPoint {
	return store.MeasuredPoint{
		Config:     p.Config.Key(),
		Label:      p.Config.String(),
		Seconds:    p.TrueSeconds,
		DynPowerW:  p.MeasuredEnergyJ / p.TrueSeconds,
		DynEnergyJ: p.MeasuredEnergyJ,
		Attempts:   p.Attempts,
	}
}

// failedPoint maps a given-up point to its record entry, with the final
// error text (or "unknown error" when the failure carries none).
func failedPoint(f PointFailure) store.FailedPoint {
	msg := "unknown error"
	if f.Err != nil {
		msg = f.Err.Error()
	}
	return store.FailedPoint{
		Config:   f.Config.Key(),
		Label:    f.Config.String(),
		Attempts: f.Attempts,
		Error:    msg,
	}
}
