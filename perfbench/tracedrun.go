package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/parindex"
	"energyprop/internal/service"
)

// perLayerMetrics are the traced run's metrics, each with the end-to-end
// metric and workload it is predicted to move; on the other workloads
// the prediction is no change.
var perLayerMetrics = []metricDef{
	{"gpusim.run_us", "us", "points_per_s, sweep_p50_ms on cold-gpu-sweep"},
	{"cpusim.run_us", "us", "points_per_s on cold-cpu-sweep, at most by its small share"},
	{"hetero.run_us", "us", "points_per_s on cold-cpu-sweep, at most by its small share"},
	{"device.open_us", "us", "requests_per_s (/optimize p50) on warm-query-mix"},
	{"device.configs_us", "us", "requests_per_s (/optimize p50) on warm-query-mix"},
	{"device.run_share", "ratio", "share of serial per-point time in device.Run"},
	{"device.runs_per_request", "count", "points_per_s on the cold workloads"},
	{"meter.new_us", "us", "points_per_s on cold-gpu-sweep and cold-cpu-sweep"},
	{"meter.measure_run_us", "us", "points_per_s on cold-gpu-sweep and cold-cpu-sweep"},
	{"meter.samples_per_run", "count", "points_per_s on cold-gpu-sweep and cold-cpu-sweep"},
	{"stats.self_us", "us", "points_per_s on cold-cpu-sweep most, then cold-gpu-sweep"},
	{"stats.runs_per_point", "count", "points_per_s on cold-cpu-sweep most, then cold-gpu-sweep"},
	{"memo.hit_us_per_point", "us", "sweep_p50_ms on warm-query-mix"},
	{"memo.hit_ratio", "ratio", "sweep_p50_ms on warm-query-mix"},
	{"memo.dedups", "count", "requests_per_s on cold-cpu-sweep"},
	{"memo.evictions_per_request", "count", "sweep_p50_ms on cold-gpu-sweep"},
	{"campaign.self_us_per_point", "us", "sweep_p50_ms on cold-gpu-sweep"},
	{"campaign.speedup_w2", "x", "sweep_p50_ms on cold-gpu-sweep"},
	{"store.write_us_per_point", "us", "sweep_p50_ms on warm-query-mix and cold-cpu-sweep"},
	{"store.bytes_per_sweep", "B", "sweep_p50_ms on warm-query-mix and cold-cpu-sweep"},
	{"parindex.insert_us", "us", "sweep_p50_ms on cold-cpu-sweep"},
	{"parindex.best_us", "us", "requests_per_s (/optimize p50) on warm-query-mix"},
	{"parindex.admit_ratio", "ratio", "sweep_p50_ms on cold-cpu-sweep"},
	{"parindex.hit_ratio", "ratio", "requests_per_s on warm-query-mix"},
	{"parindex.front_size", "count", "requests_per_s (/optimize p50) on warm-query-mix"},
	{"service.handler_us.sweep", "us", "sweep_p50_ms on warm-query-mix"},
	{"service.handler_us.measure", "us", "requests_per_s (/measure p50) on warm-query-mix"},
	{"service.handler_us.optimize", "us", "requests_per_s (/optimize p50) on warm-query-mix"},
	{"service.self_us.sweep", "us", "sweep_p50_ms on warm-query-mix"},
	{"service.self_us.measure", "us", "requests_per_s (/measure p50) on warm-query-mix"},
	{"service.self_us.optimize", "us", "requests_per_s (/optimize p50) on warm-query-mix"},
	{"http.transport_us", "us", "every latency on warm-query-mix"},
	{"points.per_sweep", "count", "points_per_s; must repeat exactly per seed"},
	{"trace.overhead", "x", "none; untraced over traced requests_per_s"},
}

// Probe sizes of the traced run.
const (
	probesPerEndpoint = 16 // /measure and /optimize probes for workloads without them
	campaignProbes    = 8  // sweeps re-streamed at workers 1 and 2
	memoProbes        = 16 // requests re-streamed against the warm replay cache
)

// Request-id namespaces of the traced run's spans.
const (
	idProbe    = 1 << 40
	idReplay   = 2 << 40
	idCampaign = 3 << 40
	idMemo     = 4 << 40
	idBackend  = 5 << 40
)

// backendProbeKeys measure a backend the workload never runs, so every
// per-backend metric is measured on every workload.
var backendProbeKeys = map[string]key{
	"gpu":    {"p100", device.AppDense, 8192, 8},
	"cpu":    {"haswell", device.AppDense, 512, 1},
	"hetero": {"hetero", device.AppDense, 256, 3},
}

// tracedRun measures the per-layer metrics in four phases: live load in
// alternating traced and untraced windows, probes of endpoints the
// workload does not send, a replay of every client's leading requests
// through the handlers' public calls, and re-streams of a few requests
// that time the campaign fan-out, the memo hit path, and any backend the
// workload never runs.
func tracedRun(ctx context.Context, o options, rep *report) (*result, error) {
	t := &tracing{o: o, tr: newTracer()}
	var err error
	if t.s, _, err = setup(ctx, o.w, o.seed, t.tr); err != nil {
		return nil, err
	}
	if err := t.live(ctx); err != nil {
		return nil, err
	}
	if err := t.replayAll(ctx); err != nil {
		return nil, err
	}
	if err := t.reStream(ctx); err != nil {
		return nil, err
	}
	spans := t.tr.snapshot()
	if err := writeSpans(filepath.Join(o.outdir, fmt.Sprintf("spans-%s-%d.jsonl", o.w.name, o.seed)), spans); err != nil {
		t.fail(err)
	}
	m := t.metrics(spans)
	chk := checkOutputs(ctx, o, t.s, &seedRecord{
		RunsPerPoint: m["stats.runs_per_point"].Value, SamplesPerRun: m["meter.samples_per_run"].Value,
	})
	chk.errs = append(chk.errs, t.fails...)

	rpsU, rpsT := t.untraced.rate(), t.traced.rate()
	rep.printf("traced run: untraced %.1f req/s (sweep p50 %.4f ms), traced %.1f req/s (sweep p50 %.4f ms), overhead x%.4f\n",
		rpsU, median(t.untraced.sortedLat(epSweep)), rpsT, median(t.traced.sortedLat(epSweep)), ratio(rpsU, rpsT))
	rep.printf("replay: %d requests, %d spans, %d probe requests, %d device runs\n", len(t.list), len(spans), len(t.probes), t.counts.points)
	rep.latencyTable(&t.load)
	res := chk.result(&t.load, m)
	res.Attempted += len(t.list) + len(t.probes)
	rep.printChecks(chk, res)
	rep.printf("per-layer metrics (mean per call unless named otherwise):\n")
	rep.printMetrics(res.Metrics, perLayerMetrics)
	return res, nil
}

// tracing is the state of one traced run.
type tracing struct {
	o  options
	s  *session
	tr *tracer

	untraced, traced, load windowStats
	stats                  statsDelta // /stats over the live phase
	probes                 []request

	rp     *replayer // replays against state mirroring the service's
	list   []request // the replayed leading requests
	r0, r1 int       // span range of the replay
	counts passCounts
	// Replayed sweeps: count, points, and compact record bytes.
	sweeps, sweepPoints, sweepBytes int

	c0, c1     int // span range of the timed campaign round
	campPoints int
	memoPoints int

	fails []error
}

func (t *tracing) fail(err error) { t.fails = append(t.fails, err) }

// live drives the service in alternating traced and untraced windows,
// then sends the probes, and closes the service.
func (t *tracing) live(ctx context.Context) error {
	s := t.s
	runtime.GC()
	before, err := serviceStats(ctx, s)
	if err != nil {
		return err
	}
	// An untimed warm-up window first: the first requests after set-up
	// run while the heap and the cache are still growing.
	slot := time.Duration(t.o.seconds) * time.Second / 10
	runWindow(ctx, s.srv, s.clients, slot, t.tr, false)
	for i := range 4 {
		traced := i%2 == 0
		w := runWindow(ctx, s.srv, s.clients, 2*slot, t.tr, traced)
		dst := &t.untraced
		if traced {
			dst = &t.traced
		}
		dst.merge(&w)
		dst.elapsed += w.elapsed
	}
	t.probes = probeRequests(t.o, s, &t.traced)
	pc := &client{id: len(s.clients), http: s.hc, base: s.srv.base}
	s.srv.traced.Store(true)
	for _, r := range t.probes {
		pc.do(ctx, r, t.tr, true)
	}
	after, err := serviceStats(ctx, s)
	if err != nil {
		return err
	}
	t.stats = after.sub(before)
	t.load.merge(&t.untraced)
	t.load.merge(&t.traced)
	t.load.merge(&pc.win)
	t.load.elapsed = t.untraced.elapsed + t.traced.elapsed
	return s.close()
}

// replayAll replays the leading requests of every client, then the
// probes, against a private cache and index brought to the service's
// post-set-up state. A request the replay measured rather than read from
// the cache gets a per-point pass.
func (t *tracing) replayAll(ctx context.Context) error {
	t.rp = &replayer{cache: campaign.NewPointCache(service.CacheCapacity), index: parindex.NewIndex(), tr: t.tr}
	mirror := &replayer{cache: t.rp.cache, index: t.rp.index}
	for _, r := range t.s.setupReqs {
		if _, err := mirror.replay(ctx, r, r.workers, -1); err != nil {
			return err
		}
	}
	t.list = replayList(t.o.w, t.s.env, t.o.seed)
	runtime.GC()
	t.r0 = t.tr.mark()
	for i, r := range t.list {
		id := idReplay | int64(i)
		out, err := t.rp.replay(ctx, r, r.workers, id)
		if err == nil && r.expect != nil && !bytes.Equal(out.body, r.expect) {
			err = fmt.Errorf("replayed %s differs from the live oracle reply", r.path)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		if r.ep == epSweep {
			t.sweeps++
			t.sweepPoints += len(out.reports)
			t.sweepBytes += len(out.body)
		}
		if out.missed > 0 {
			// Every point of a request the stream missed on is re-measured;
			// no workload here mixes hits and misses within one request.
			c, err := pointPass(ctx, t.tr, id, "pointpass", out.dev, r.key.workload(), out.configs, r.seed, r.workers, out.reports)
			if err != nil {
				t.fail(err)
			}
			t.counts.add(c)
		}
	}
	t.r1 = t.tr.mark()
	runtime.GC()
	for i, r := range t.probes {
		if _, err := t.rp.replay(ctx, r, r.workers, idProbe|int64(i)); err != nil {
			t.fail(err)
		}
	}
	return nil
}

// reStream times campaign.Stream at workers 1 and 2 against a per-point
// pass of the same sweeps, the memo hit path, and a per-point pass on
// any backend the workload never ran.
func (t *tracing) reStream(ctx context.Context) error {
	// The campaign probe runs twice and keeps the second round, so the
	// first pass over each sweep does not pay the cold-start cost alone.
	// campaign.self_us_per_point is a small difference of two large
	// times, so the pass and the workers=1 stream swap order from sweep
	// to sweep.
	for round, ptr := range []*tracer{nil, t.tr} {
		t.c0, t.campPoints = ptr.mark(), 0
		for i, r := range firstN(t.list, epSweep, campaignProbes) {
			id := idCampaign | int64(round)<<32 | int64(i)
			dev, configs, err := resolve(r)
			if err != nil {
				return err
			}
			stream := func(workers int) {
				spec := handlerSpec(r.seed, workers)
				spec.Cache = campaign.NewPointCache(service.CacheCapacity)
				sp := ptr.begin("campaign.w"+strconv.Itoa(workers), id, -1)
				err := campaign.Stream(ctx, dev, r.key.workload(), configs, spec, campaign.Discard)
				ptr.end(sp)
				if err != nil {
					t.fail(err)
				}
			}
			if i%2 == 1 {
				stream(1)
			}
			if _, err := pointPass(ctx, ptr, id, "probe.pass", dev, r.key.workload(), configs, r.seed, 1, nil); err != nil {
				t.fail(err)
			}
			if i%2 == 0 {
				stream(1)
			}
			stream(2)
			t.campPoints += len(configs)
		}
		t.c1 = ptr.mark()
	}

	// The latest requests are re-streamed: they are still in the replay
	// cache, where the earliest cold-cpu-sweep points are already evicted.
	for i, r := range append(lastN(t.list, epSweep, memoProbes/2), lastN(t.list, epMeasure, memoProbes/2)...) {
		dev, configs, err := resolve(r)
		if err != nil {
			return err
		}
		spec := handlerSpec(r.seed, 1)
		spec.Cache = t.rp.cache
		sp := t.tr.begin("memo.hit", idMemo|int64(i), -1)
		err = campaign.Stream(ctx, dev, r.key.workload(), configs, spec, campaign.Discard)
		t.tr.end(sp)
		if err != nil {
			t.fail(err)
		}
		t.memoPoints += len(configs)
	}

	ran := map[string]bool{}
	for _, sp := range t.tr.snapshot() {
		ran[sp.Name] = true
	}
	for i, kind := range []string{"gpu", "cpu", "hetero"} {
		if ran[runSpan(kind)] {
			continue
		}
		r := request{key: backendProbeKeys[kind], seed: mixSeed(t.o.seed, tagProbe)}
		dev, configs, err := resolve(r)
		if err != nil {
			return err
		}
		if _, err := pointPass(ctx, t.tr, idBackend|int64(i), "probe.backend", dev, r.key.workload(), configs, r.seed, 1, nil); err != nil {
			t.fail(err)
		}
	}
	return nil
}

// metrics computes every per-layer metric from the spans and counters.
func (t *tracing) metrics(spans []span) map[string]metric {
	self := selfTimes(spans)
	all := aggregate(spans, self, 0, len(spans))
	replay := aggregate(spans, self, t.r0, t.r1)
	camp := aggregate(spans, self, t.c0, t.c1)
	d := t.stats
	campW1 := float64(get(camp, "campaign.w1").total)
	campRun := float64(get(camp, "gpusim.run").total + get(camp, "cpusim.run").total + get(camp, "hetero.run").total)
	v := map[string]float64{
		"gpusim.run_us":              get(all, "gpusim.run").meanUS(),
		"cpusim.run_us":              get(all, "cpusim.run").meanUS(),
		"hetero.run_us":              get(all, "hetero.run").meanUS(),
		"device.open_us":             get(all, "device.open").meanUS(),
		"device.configs_us":          get(all, "device.configs").meanUS(),
		"device.run_share":           ratio(campRun, campW1),
		"device.runs_per_request":    ratio(float64(t.counts.points), float64(len(t.list))),
		"meter.new_us":               get(all, "meter.new").meanUS(),
		"meter.measure_run_us":       get(all, "meter.measure_run").meanUS(),
		"meter.samples_per_run":      ratio(float64(t.counts.samples), float64(t.counts.measureRuns)),
		"stats.self_us":              get(all, "stats.measure").meanSelfUS(),
		"stats.runs_per_point":       ratio(float64(t.counts.runs), float64(t.counts.points)),
		"memo.hit_us_per_point":      ratio(float64(get(all, "memo.hit").total)/1e3, float64(t.memoPoints)),
		"memo.hit_ratio":             ratio(float64(d.Cache.Hits), float64(d.Cache.Hits+d.Cache.Misses)),
		"memo.dedups":                float64(d.Cache.Dedups),
		"memo.evictions_per_request": ratio(float64(d.Cache.Evictions), float64(t.load.done())),
		"campaign.self_us_per_point": ratio((campW1-float64(get(camp, "probe.pass").total))/1e3, float64(t.campPoints)),
		"campaign.speedup_w2":        ratio(campW1, float64(get(camp, "campaign.w2").total)),
		"store.write_us_per_point":   ratio(float64(get(replay, "store.write").total)/1e3, float64(t.sweepPoints)),
		"store.bytes_per_sweep":      ratio(float64(t.sweepBytes), float64(t.sweeps)),
		"parindex.insert_us":         get(all, "parindex.insert").meanUS(),
		"parindex.best_us":           get(all, "parindex.best").meanUS(),
		"parindex.admit_ratio":       ratio(float64(d.Index.Admitted), float64(d.Index.Inserts)),
		"parindex.hit_ratio":         ratio(float64(d.Index.Hits), float64(d.Index.Queries)),
		"parindex.front_size":        meanFrontSize(t.rp.index),
		"points.per_sweep":           ratio(float64(t.sweepPoints), float64(t.sweeps)),
		"trace.overhead":             ratio(t.untraced.rate(), t.traced.rate()),
	}
	var transport agg
	for _, ep := range endpointNames {
		// Handler time is the service's cost of the whole request; the
		// replay's is the cost of the public calls it makes. Both endpoint
		// mixes are dealt in equal shares, so their medians compare.
		h := get(all, "service.handler."+ep).medianUS()
		v["service.handler_us."+ep] = h
		v["service.self_us."+ep] = h - get(all, "replay."+ep).medianUS()
		a := get(all, "http."+ep)
		transport.n += a.n
		transport.self += a.self
	}
	v["http.transport_us"] = transport.meanSelfUS()
	return withUnits(v, perLayerMetrics)
}

// probeRequests are the requests the traced run sends for endpoints the
// workload never exercised in its traced windows: one fresh sweep, then
// /measure hits on its configurations and /optimize queries on its key
// whose constraints every point meets.
func probeRequests(o options, s *session, traced *windowStats) []request {
	needMeasure := len(traced.lat[epMeasure]) == 0
	needOptimize := len(traced.lat[epOptimize]) == 0
	if !needMeasure && !needOptimize {
		return nil
	}
	k := o.w.keys[0]
	sw := s.env.sweep(k, mixSeed(o.seed, tagProbe), o.w.workers)
	out := []request{sw}
	configs := s.env.configs[k]
	for i := range probesPerEndpoint {
		if needMeasure {
			out = append(out, s.env.measure(k, configs[i%len(configs)], sw.seed))
		}
		if needOptimize {
			if i%2 == 0 {
				out = append(out, optimize(k, 1e6, 0))
			} else {
				out = append(out, optimize(k, 0, 1e12))
			}
		}
	}
	return out
}

// replayList is the leading replayPerClient requests of every client's
// sequence, interleaved client by client.
func replayList(w *workload, e *env, seed int64) []request {
	gens := make([]*generator, clientCount(w))
	for i := range gens {
		gens[i] = newGenerator(w, e, seed, i)
	}
	var out []request
	for range w.replayPerClient {
		for _, g := range gens {
			out = append(out, g.next())
		}
	}
	return out
}

// lastN returns the last n requests to ep, in order.
func lastN(list []request, ep endpoint, n int) []request {
	var out []request
	for i := len(list) - 1; i >= 0 && len(out) < n; i-- {
		if list[i].ep == ep {
			out = append(out, list[i])
		}
	}
	slices.Reverse(out)
	return out
}

// firstN returns the first n requests to ep.
func firstN(list []request, ep endpoint, n int) []request {
	var out []request
	for _, r := range list {
		if len(out) == n {
			break
		}
		if r.ep == ep {
			out = append(out, r)
		}
	}
	return out
}

// resolve opens r's device and its configurations (the one named, for
// /measure).
func resolve(r request) (device.Device, []device.Config, error) {
	dev, err := device.Open(r.key.Device)
	if err != nil {
		return nil, nil, err
	}
	configs, err := dev.Configs(r.key.workload())
	if err != nil {
		return nil, nil, err
	}
	if r.ep == epMeasure {
		if configs = pick(configs, r.config); configs == nil {
			return nil, nil, fmt.Errorf("%v has no config %q", r.key, r.config)
		}
	}
	return dev, configs, nil
}

func meanFrontSize(x *parindex.Index) float64 {
	keys := x.Keys()
	total := 0
	for _, k := range keys {
		total += len(x.Entries(k))
	}
	return ratio(float64(total), float64(len(keys)))
}

// statsDelta is a /stats reply, or the difference of two.
type statsDelta service.StatsResponse

func serviceStats(ctx context.Context, s *session) (statsDelta, error) {
	var st statsDelta
	body, err := send(ctx, s.hc, s.srv.base, request{path: "/stats"}, -1)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

func (a statsDelta) sub(b statsDelta) statsDelta {
	a.Cache.Hits -= b.Cache.Hits
	a.Cache.Misses -= b.Cache.Misses
	a.Cache.Dedups -= b.Cache.Dedups
	a.Cache.Evictions -= b.Cache.Evictions
	a.Index.Inserts -= b.Index.Inserts
	a.Index.Admitted -= b.Index.Admitted
	a.Index.Queries -= b.Index.Queries
	a.Index.Hits -= b.Index.Hits
	return a
}
