// Command perfbench is the repository benchmark. It serves the real
// measurement service (service.New().Handler() on a loopback listener,
// as cmd/epmeterd serves it) and drives one named workload through it
// with a seeded, closed-loop load generator of at most nproc clients,
// checks the replies, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run replays the workload through each layer's public
// entry points and reports the per-layer ones. Run it from the module
// root, usually through run.sh:
//
//	bash perfbench/run.sh --workload cold-gpu-sweep --seed 1 --seconds 10 --trace 0
//
// Host time is what is measured. The simulated device values are not
// validated against real hardware (the repository holds no hardware
// reference measurements), so no accuracy figure is given.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:]))
}

type options struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	outdir  string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cold-gpu-sweep, cold-cpu-sweep or warm-query-mix")
	seed := fs.Int64("seed", 1, "workload seed; every generated request derives from it")
	seconds := fs.Int("seconds", 10, "measured seconds of closed-loop load")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outdir := fs.String("outdir", ".bench_build/perfbench", "directory for span dumps and the per-seed determinism record")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds %d must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	return options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outdir: *outdir}, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when a check failed or the run could not complete, 2
// on bad arguments.
func run(ctx context.Context, args []string) int {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	rep := &report{w: os.Stdout}
	rep.printf("perfbench: workload %s seed %d seconds %d trace %v\n", opts.w.name, opts.seed, opts.seconds, opts.trace)
	rep.printf("host: nproc %d GOMAXPROCS %d %s; clients %d (workload asks %d), sweep workers %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clientCount(opts.w), opts.w.clients, opts.w.workers)
	rep.printf("mix: %s\n", opts.w.mix)
	rep.printf("note: host time is measured; simulated device values are not validated against hardware\n")
	var res *result
	if opts.trace {
		res, err = tracedRun(ctx, opts, rep)
	} else {
		res, err = endToEndRun(ctx, opts, rep)
	}
	if err == nil {
		err = rep.err
	}
	var line []byte
	if err == nil {
		line, err = json.Marshal(res)
	}
	if err == nil {
		_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines before the result; the first
// write error sticks.
type report struct {
	w   io.Writer
	err error
}

func (r *report) printf(format string, args ...any) {
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, format, args...)
	}
}

// session is one started service with its clients.
type session struct {
	env     *env
	srv     *server
	hc      *http.Client
	clients []*client
	// setupReqs are the requests set-up sent, in order.
	setupReqs []request
}

// An end-to-end run sets up setupReps times and reports the median
// set-up time, and splits its measured seconds into subWindows.
const (
	setupReps  = 11
	subWindows = 10
)

// setup starts the service and brings it to the workload's starting
// state: warm-query-mix pre-fills the cache and index, the cold
// workloads sweep every key once so lazy initialisation is done before
// timing. It returns the server-side set-up time: construction,
// listener, and the set-up requests.
func setup(ctx context.Context, w *workload, seed int64, tr *tracer) (*session, time.Duration, error) {
	e, err := newEnv(w)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, tagPrefill)))
	var reqs []request
	for _, k := range w.keys {
		n := 1
		if w.prefill {
			n = prefillSeedsPerKey
		}
		for range n {
			reqs = append(reqs, e.sweep(k, rng.Int63(), 2))
		}
	}
	hc := newHTTPClient(clientCount(w))
	start := time.Now()
	srv, err := startServer(tr)
	if err != nil {
		return nil, 0, err
	}
	s := &session{env: e, srv: srv, hc: hc, setupReqs: reqs}
	for _, r := range reqs {
		body, err := send(ctx, hc, srv.base, r, -1)
		if err != nil {
			return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), s.close())
		}
		if w.prefill {
			e.prefill = append(e.prefill, prefilled{key: r.key, seed: r.seed, body: body})
		}
	}
	took := time.Since(start)
	if w.prefill {
		if err := e.buildQueries(seed); err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
	}
	s.clients = newClients(w, e, seed, srv.base, hc)
	return s, took, nil
}

func (s *session) close() error {
	s.hc.CloseIdleConnections()
	return s.srv.close()
}

func endToEndRun(ctx context.Context, o options, rep *report) (*result, error) {
	var (
		s      *session
		setups []float64
	)
	for range setupReps {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if s, took, err = setup(ctx, o.w, o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	// The measured seconds are split into sub-windows and each rate or
	// latency is the best-quartile of its per-window values, so a
	// transient stall of the host moves a few windows, not the result.
	runtime.GC()
	var (
		all                               windowStats
		rps, pps, p50, p90, cpuPerRequest []float64
	)
	slot := time.Duration(o.seconds) * time.Second / subWindows
	for range subWindows {
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		win := runWindow(ctx, s.srv, s.clients, slot, nil, false)
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		done := float64(win.done())
		sweeps := win.sortedLat(epSweep)
		rps = append(rps, win.rate())
		pps = append(pps, float64(win.points)/win.elapsed.Seconds())
		p50 = append(p50, percentileOr0(sweeps, 5000))
		p90 = append(p90, percentileOr0(sweeps, 9000))
		cpuPerRequest = append(cpuPerRequest, ratio(float64((cpu1-cpu0).Microseconds())/1e3, done))
		all.merge(&win)
		all.elapsed += win.elapsed
	}
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	chk := checkOutputs(ctx, o, s, nil)
	m := withUnits(map[string]float64{
		"setup_s":            sortedMedian(setups),
		"requests_per_s":     bestQuartile(rps, true),
		"points_per_s":       bestQuartile(pps, true),
		"sweep_p50_ms":       bestQuartile(p50, false),
		"sweep_p90_ms":       bestQuartile(p90, false),
		"cpu_ms_per_request": bestQuartile(cpuPerRequest, false),
		"mem_peak_mb":        mem,
	}, endToEndMetrics)
	rep.printf("windows: requests_per_s %.4g\n         sweep_p50_ms %.4g\n         sweep_p90_ms %.4g\n         cpu_ms_per_request %.4g\n",
		rps, p50, p90, cpuPerRequest)
	rep.printf("set-up: %d runs, median %.4f s (min %.4f, max %.4f)\n", len(setups), median(setups), setups[0], setups[len(setups)-1])
	rep.latencyTable(&all)
	res := chk.result(&all, m)
	rep.printChecks(chk, res)
	rep.printMetrics(res.Metrics, endToEndMetrics)
	return res, nil
}

// bestQuartile sorts the per-window values v in place and returns the
// one a quarter of the way from the best end (the third best of ten).
// Other tenants of a shared host slow some windows and speed up none, so
// this rejects up to three quarters of disturbed windows where a median
// rejects half.
func bestQuartile(v []float64, higherIsBetter bool) float64 {
	sort.Float64s(v)
	if higherIsBetter {
		return percentile(v, 7500)
	}
	return percentile(v, 2500)
}

// sortedMedian sorts v in place and returns its median.
func sortedMedian(v []float64) float64 {
	sort.Float64s(v)
	return median(v)
}

func percentileOr0(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, bp)
}

// checks is the outcome of every output check of a run.
type checks struct {
	ver    verification
	canary canaryResult
	// errs are failures outside the per-reply checks (canary, seed
	// record, replay mismatches).
	errs []error
}

// checkOutputs verifies the kept replies, the canary, and the per-seed
// record. extra carries the traced run's simulated counts.
func checkOutputs(ctx context.Context, o options, s *session, extra *seedRecord) *checks {
	c := &checks{ver: verifyReplies(ctx, s.env, s.clients)}
	var err error
	if c.canary, err = runCanary(ctx, s.env); err != nil {
		c.errs = append(c.errs, err)
	}
	rec := seedRecord{Digest: c.ver.digest, Points: c.ver.points}
	if extra != nil {
		rec.RunsPerPoint, rec.SamplesPerRun = extra.RunsPerPoint, extra.SamplesPerRun
	}
	if err := checkSeedRecord(o.outdir, o.w.name, o.seed, rec); err != nil {
		c.errs = append(c.errs, err)
	}
	return c
}

// result assembles the final line: every load request and every check
// counts as attempted; transport errors, non-200 replies, and mismatches
// count as failed.
func (c *checks) result(win *windowStats, m map[string]metric) *result {
	attempted := win.attempted + c.ver.checked + 2 // + canary and seed record
	failed := win.failed + c.ver.failed + len(c.errs)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

func (r *report) latencyTable(win *windowStats) {
	r.printf("load: %d requests attempted, %d failed, %.2f s, %d points\n", win.attempted, win.failed, win.elapsed.Seconds(), win.points)
	if win.firstErr != nil {
		r.printf("  first failed request: %v\n", win.firstErr)
	}
	for e := range numEndpoints {
		lat := win.sortedLat(e)
		if len(lat) == 0 {
			continue
		}
		line := fmt.Sprintf("  %-8s n=%-7d p50 %.4f ms  p90 %.4f ms", e, len(lat), median(lat), percentile(lat, 9000))
		if t, ok := tailOf(lat, 10); ok {
			line += fmt.Sprintf("  tail p%g %.4f ms (%d samples beyond)", float64(t.BP)/100, t.Value, t.Beyond)
		}
		r.printf("%s\n", line)
	}
}

func (r *report) printChecks(c *checks, res *result) {
	r.printf("checks: %d replies checked, %d mismatched; digest %s over %d points; canary %+v\n",
		c.ver.checked, c.ver.failed, c.ver.digest, c.ver.points, c.canary)
	if c.ver.err != nil {
		r.printf("  first reply mismatch: %v\n", c.ver.err)
	}
	for _, err := range c.errs {
		r.printf("  check failed: %v\n", err)
	}
	r.printf("fail_frac %.6f (%d of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

// metricDef names a reported metric and, for per-layer ones, the
// end-to-end metric and workload it is predicted to move.
type metricDef struct {
	name, unit, moves string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", ""},
	{"requests_per_s", "1/s", ""},
	{"points_per_s", "1/s", ""},
	{"sweep_p50_ms", "ms", ""},
	{"sweep_p90_ms", "ms", ""},
	{"cpu_ms_per_request", "ms", ""},
	{"mem_peak_mb", "MB", ""},
}

// withUnits attaches each defined metric's unit to its value; values
// without a definition are dropped.
func withUnits(v map[string]float64, defs []metricDef) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		if x, ok := v[d.name]; ok {
			m[d.name] = metric{Value: x, Unit: d.unit}
		}
	}
	return m
}

func (r *report) printMetrics(m map[string]metric, defs []metricDef) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			r.err = errors.Join(r.err, fmt.Errorf("metric %s was not measured", d.name))
			continue
		}
		line := fmt.Sprintf("  %-32s %14.6g %s", d.name, v.Value, v.Unit)
		if d.moves != "" {
			line += "    moves " + d.moves
		}
		r.printf("%s\n", line)
	}
}
