package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/meter"
	"energyprop/internal/parindex"
	"energyprop/internal/service"
	"energyprop/internal/stats"
)

// replayer re-executes requests through the public calls the service
// handlers make: device.Open, Configs, then campaign.Stream into the
// handler's sinks (or parindex.Index.Best for /optimize). With a nil
// cache and index it is the serial, uncached oracle the live replies are
// checked against; with a tracer it records a span around every call.
type replayer struct {
	cache *campaign.PointCache
	index *parindex.Index
	tr    *tracer
}

// replayed is one replayed request's outcome.
type replayed struct {
	body []byte
	// reports are the stream's outcomes in configuration order.
	reports []campaign.PointReport
	// missed is how many points the stream measured rather than read
	// from the cache.
	missed  int
	dev     device.Device
	configs []device.Config
}

// handlerSpec is the campaign spec the service handlers use, minus the
// cache: the paper's default methodology, one attempt per point, and
// graceful degradation.
func handlerSpec(seed int64, workers int) campaign.Spec {
	spec := campaign.DefaultSpec(seed)
	spec.Workers = workers
	spec.Retry = fault.RetryPolicy{MaxAttempts: 1}
	spec.ContinueOnError = true
	return spec
}

// timedSink records a span around every Accept and Flush of the sink it
// wraps, so sink cost is timed from the caller's side.
type timedSink struct {
	name   string
	sink   campaign.Sink
	tr     *tracer
	req    int64
	parent int32
}

func (s timedSink) Accept(o campaign.PointOutcome) error {
	id := s.tr.begin(s.name, s.req, s.parent)
	err := s.sink.Accept(o)
	s.tr.end(id)
	return err
}

func (s timedSink) Flush() error {
	id := s.tr.begin(s.name, s.req, s.parent)
	err := s.sink.Flush()
	s.tr.end(id)
	return err
}

func encodeReply(v any) ([]byte, error) {
	// The handlers reply through json.Encoder, which appends a newline.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replay re-executes r with the given sweep fan-out and returns the reply
// body the handler would have written.
func (rp *replayer) replay(ctx context.Context, r request, workers int, req int64) (replayed, error) {
	root := rp.tr.begin("replay."+r.ep.String(), req, -1)
	defer rp.tr.end(root)
	var out replayed
	sp := rp.tr.begin("device.open", req, root)
	dev, err := device.Open(r.key.Device)
	rp.tr.end(sp)
	if err != nil {
		return out, err
	}
	out.dev = dev
	wl := r.key.workload()
	if r.ep == epOptimize {
		return rp.optimize(r, req, root)
	}
	sp = rp.tr.begin("device.configs", req, root)
	configs, err := dev.Configs(wl)
	rp.tr.end(sp)
	if err != nil {
		return out, err
	}
	if r.ep == epMeasure {
		configs = pick(configs, r.config)
		if configs == nil {
			return out, fmt.Errorf("%v has no config %q", r.key, r.config)
		}
		workers = 1
	}
	out.configs = configs
	spec := handlerSpec(r.seed, workers)
	spec.Cache = rp.cache
	sinks := campaign.MultiSink{campaign.FuncSink{AcceptFunc: func(o campaign.PointOutcome) error {
		if o.Failure != nil {
			return fmt.Errorf("%v config %s: %v", r.key, o.Failure.Config.Key(), o.Failure.Err)
		}
		out.reports = append(out.reports, o.Report)
		return nil
	}}}
	stream := rp.tr.begin("campaign.stream", req, root)
	var body bytes.Buffer
	if r.ep == epSweep {
		rs, err := campaign.NewRecordSink(&body, dev, wl, true)
		if err != nil {
			return out, err
		}
		sinks = append(sinks, timedSink{"store.write", rs, rp.tr, req, stream})
	}
	if rp.index != nil {
		sinks = append(sinks, timedSink{"parindex.insert", campaign.NewIndexSink(rp.index, r.key.Device, wl), rp.tr, req, stream})
	}
	before := cacheMisses(rp.cache)
	err = campaign.Stream(ctx, dev, wl, configs, spec, sinks)
	rp.tr.end(stream)
	if err != nil {
		return out, err
	}
	out.missed = len(configs)
	if rp.cache != nil {
		out.missed = int(cacheMisses(rp.cache) - before)
	}
	if r.ep == epSweep {
		out.body = body.Bytes()
		return out, nil
	}
	p := out.reports[0]
	out.body, err = encodeReply(service.MeasureResponse{
		Device:          dev.Spec().CatalogName,
		Config:          p.Config.String(),
		Key:             p.Config.Key(),
		Seconds:         p.TrueSeconds,
		MeasuredEnergyJ: p.MeasuredEnergyJ,
		HalfWidthJ:      p.HalfWidthJ,
		Runs:            p.Runs,
		Attempts:        p.Attempts,
	})
	return out, err
}

func (rp *replayer) optimize(r request, req int64, root int32) (replayed, error) {
	var out replayed
	if rp.index == nil {
		return out, fmt.Errorf("replaying /optimize needs an index")
	}
	pk := parindex.Key{Device: r.key.Device, App: r.key.App, N: r.key.N, Products: r.key.Products}
	sp := rp.tr.begin("parindex.best", req, root)
	e, size, ok := rp.index.Best(pk, parindex.Query{MaxTime: r.maxTime, MaxEnergy: r.maxEnergy})
	rp.tr.end(sp)
	if !ok {
		return out, fmt.Errorf("replayed %s found no answer (front size %d)", r.path, size)
	}
	var err error
	out.body, err = encodeReply(optimizeReply(r, e, size))
	return out, err
}

// optimizeReply is the /optimize reply for answer e on a front of the
// given size.
func optimizeReply(r request, e parindex.Entry, frontSize int) service.OptimizeResponse {
	objective := "seconds"
	if r.maxTime > 0 {
		objective = "dyn_energy_j"
	}
	return service.OptimizeResponse{
		Device: r.key.Device, App: r.key.App, N: r.key.N, Products: r.key.Products,
		Config: e.Config, Label: e.Label, Seconds: e.Time, DynEnergyJ: e.Energy,
		Objective: objective, FrontSize: frontSize,
	}
}

func pick(configs []device.Config, k string) []device.Config {
	for _, c := range configs {
		if c.Key() == k {
			return []device.Config{c}
		}
	}
	return nil
}

func cacheMisses(c *campaign.PointCache) uint64 {
	if c == nil {
		return 0
	}
	return c.Stats().Misses
}

// passCounts are the simulated counts of a per-point pass: they depend
// only on the points measured, never on timing.
type passCounts struct {
	points      int
	runs        int // statistical repetitions (stats.Measure observations)
	measureRuns int // meter.MeasureRun calls
	samples     int // meter samples integrated
}

func (a *passCounts) add(b passCounts) {
	a.points += b.points
	a.runs += b.runs
	a.measureRuns += b.measureRuns
	a.samples += b.samples
}

// runSpan names the device.Run span after the backend's simulator
// package.
func runSpan(kind string) string {
	switch kind {
	case "gpu":
		return "gpusim.run"
	case "cpu":
		return "cpusim.run"
	}
	return kind + ".run"
}

// pointPass re-measures each configuration the way the campaign engine
// measures a cache miss — device.Run, then a fresh meter.NewMeter, then
// stats.Measure over meter.MeasureRun — with a span around each call,
// because no span can be placed inside campaign.Stream from outside it.
// Each point must reproduce want (the stream's outcome) bit for bit.
// workers goroutines share the points, mirroring the request's fan-out.
func pointPass(ctx context.Context, tr *tracer, req int64, name string, dev device.Device, wl device.Workload,
	configs []device.Config, seed int64, workers int, want []campaign.PointReport) (passCounts, error) {
	pass := tr.begin(name, req, -1)
	defer tr.end(pass)
	spec := handlerSpec(seed, workers)
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total passCounts
		first error
		wg    sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(configs) {
				return
			}
			got, err := measureOne(ctx, tr, req, pass, dev, wl, configs[i], spec)
			if err == nil && want != nil {
				err = samePoint(got.report, want[i])
			}
			mu.Lock()
			if err != nil && first == nil {
				first = err
			}
			total.add(got.counts)
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}
	workers = max(workers, 1)
	wg.Add(workers)
	for range workers {
		go worker()
	}
	wg.Wait()
	return total, first
}

type measuredPoint struct {
	report campaign.PointReport
	counts passCounts
}

func measureOne(ctx context.Context, tr *tracer, req int64, parent int32, dev device.Device, wl device.Workload,
	c device.Config, spec campaign.Spec) (measuredPoint, error) {
	var mp measuredPoint
	pt := tr.begin("point", req, parent)
	defer tr.end(pt)
	sp := tr.begin(runSpan(dev.Kind()), req, pt)
	out, err := dev.Run(ctx, wl, c)
	tr.end(sp)
	if err != nil {
		return mp, err
	}
	idle := dev.Spec().IdlePowerW
	sp = tr.begin("meter.new", req, pt)
	m := meter.NewMeter(idle, device.ConfigSeed(spec.Seed, c))
	tr.end(sp)
	m.NoiseFrac = spec.NoiseFrac
	m.SpikeProb = spec.SpikeProb
	if d := out.Run.Duration(); d < 50 {
		m.SampleInterval = d / 50
	}
	st := tr.begin("stats.measure", req, pt)
	meas, err := stats.Measure(spec.Measure, func() (float64, error) {
		id := tr.begin("meter.measure_run", req, st)
		rep, err := m.MeasureRun(out.Run)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		mp.counts.measureRuns++
		mp.counts.samples += rep.Samples
		return rep.DynamicEnergyJ, nil
	})
	tr.end(st)
	if err != nil {
		return mp, fmt.Errorf("config %v: %w", c, err)
	}
	mp.counts.points = 1
	mp.counts.runs = meas.Runs
	mp.report = campaign.PointReport{
		Config: c, TrueSeconds: out.TrueSeconds, TrueEnergyJ: out.TrueEnergyJ,
		MeasuredEnergyJ: meas.Mean, HalfWidthJ: meas.HalfWidth, Runs: meas.Runs,
	}
	return mp, nil
}

// samePoint reports whether the pass reproduced the stream's point bit
// for bit.
func samePoint(got, want campaign.PointReport) error {
	same := got.Config.Key() == want.Config.Key() && got.Runs == want.Runs &&
		math.Float64bits(got.TrueSeconds) == math.Float64bits(want.TrueSeconds) &&
		math.Float64bits(got.MeasuredEnergyJ) == math.Float64bits(want.MeasuredEnergyJ) &&
		math.Float64bits(got.HalfWidthJ) == math.Float64bits(want.HalfWidthJ)
	if !same {
		return fmt.Errorf("per-point pass of %s differs from the campaign engine: got %+v, want %+v",
			want.Config.Key(), got, want)
	}
	return nil
}
