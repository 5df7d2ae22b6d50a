package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"energyprop/internal/device"
	"energyprop/internal/service"
)

// endpoint names the service endpoints the workloads drive.
type endpoint int

const (
	epSweep endpoint = iota
	epMeasure
	epOptimize
	numEndpoints
)

var endpointNames = [numEndpoints]string{"sweep", "measure", "optimize"}

func (e endpoint) String() string { return endpointNames[e] }

// key is one (device, workload) campaign identity, with the workload
// already normalized (App "dgemm" rather than "").
type key struct {
	Device   string
	App      string
	N        int
	Products int
}

func (k key) workload() device.Workload {
	return device.Workload{App: k.App, N: k.N, Products: k.Products}
}

func (k key) String() string { return fmt.Sprintf("%s/%s/N=%d/x%d", k.Device, k.App, k.N, k.Products) }

// request is one generated service call plus what the harness needs to
// check its reply.
type request struct {
	ep      endpoint
	key     key
	seed    int64
	workers int
	config  string // /measure only: the configuration key
	// maxTime and maxEnergy are /optimize's constraint (one is set).
	maxTime, maxEnergy float64
	path               string // URL path, with the query for /optimize
	body               []byte // POST body; nil for GET
	// points is the number of measured configuration points the reply
	// carries (0 for /optimize).
	points int
	// expect, when set, is the exact reply body, known before sending.
	expect []byte
}

// workload is one named closed-loop traffic mix.
type workload struct {
	name string
	why  string
	mix  string
	// clients is the closed-loop client count before the nproc cap.
	clients int
	// workers is the "workers" field of the workload's /sweep requests.
	workers int
	// replayPerClient is how many leading requests of each client's
	// sequence the traced run replays through the public calls.
	replayPerClient int
	// prefill selects warm set-up: sweep every key prefillSeedsPerKey
	// times and check /optimize against those records.
	prefill bool
	// keys are the campaigns the workload sends fresh-seed sweeps for
	// (cold workloads) or pre-fills and queries (warm-query-mix).
	keys []key
	next func(g *generator) request
}

// Campaign identities used by the workloads.
var (
	// Sweep latency clusters by key, and the keys are dealt in equal
	// shares; an odd key count keeps the median and p90 inside a cluster
	// instead of on the gap between two, where they would jump between
	// runs.
	gpuKeys = []key{
		{"p100", device.AppDense, 8192, 8}, {"p100", device.AppDense, 10240, 8}, {"p100", device.AppDense, 12288, 8},
		{"k40c", device.AppDense, 8192, 8}, {"k40c", device.AppDense, 12288, 8},
	}
	cpuKeys = []key{
		{"haswell", device.AppDense, 512, 1}, {"haswell", device.AppFFT, 256, 1}, {"hetero", device.AppDense, 256, 3},
	}
	// warmKeys are pre-filled and queried by warm-query-mix; one per
	// backend family so the memo hit path and the index cover each.
	warmKeys = []key{
		{"p100", device.AppDense, 8192, 8}, {"k40c", device.AppDense, 10240, 8},
		{"haswell", device.AppDense, 512, 1}, {"haswell", device.AppFFT, 256, 1}, {"hetero", device.AppDense, 256, 3},
	}
	// freshMeasureKey takes warm-query-mix's fresh-seed /measure traffic.
	// /optimize never queries it, so the index writes it causes cannot
	// change any checked /optimize answer.
	freshMeasureKey = key{"p100", device.AppDense, 12288, 8}
)

// prefillSeedsPerKey is how many seeds warm-query-mix sweeps per key at
// set-up; the /optimize fronts merge them.
const prefillSeedsPerKey = 2

var workloads = []*workload{
	{
		name:            "cold-gpu-sweep",
		why:             "fresh-seed GPU sweeps: every point misses the memo, so the gpusim traced schedule inside device.Run dominates",
		mix:             "100% POST /sweep on p100 dgemm N in {8192,10240,12288} x8 and k40c dgemm N in {8192,12288} x8, equal shares, fresh seed per request",
		clients:         1,
		workers:         2,
		replayPerClient: 24,
		keys:            gpuKeys,
		next:            coldSweep,
	},
	{
		name:            "cold-cpu-sweep",
		why:             "fresh-seed CPU/hetero sweeps: cheap model, so the stats loop, meter, memo, record writer, index and JSON dominate",
		mix:             "100% POST /sweep on haswell dgemm N=512, haswell fft N=256, hetero dgemm N=256 x3, equal shares, fresh seed per request",
		clients:         2,
		workers:         1,
		replayPerClient: 24,
		keys:            cpuKeys,
		next:            coldSweep,
	},
	{
		name:            "warm-query-mix",
		why:             "pre-filled cache and index: memo hits, record encode, parindex queries and HTTP overhead dominate; device runs only for fresh /measure",
		mix:             "50% GET /optimize, 30% /sweep replays, 15% /measure replays, 5% fresh-seed /measure on an unqueried key",
		clients:         2,
		workers:         1,
		replayPerClient: 400,
		prefill:         true,
		keys:            warmKeys,
		next:            warmMix,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// mixSeed derives an independent stream seed from the workload seed and
// a stream tag (splitmix64 finalizer), so clients and set-up draw from
// unrelated sequences.
func mixSeed(seed int64, tag uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(tag+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream tags for mixSeed; clients use their index.
const (
	tagPrefill = 1<<20 + iota // set-up sweeps
	tagProbe                  // traced-run probes
	tagQueries                // warm-query-mix's /optimize table
)

// generator draws one client's request sequence. The sequence is a pure
// function of (workload, seed, client) and the environment built at
// set-up, which is itself a function of the seed.
//
// Choices are dealt from shuffled decks rather than drawn independently,
// so every run sends the same proportions of each kind and key: the
// order and the campaign seeds change with the seed, the mix does not.
type generator struct {
	w     *workload
	env   *env
	rng   *rand.Rand
	decks map[string]*deck
}

func newGenerator(w *workload, e *env, seed int64, client int) *generator {
	return &generator{w: w, env: e, rng: rand.New(rand.NewSource(mixSeed(seed, uint64(client)))), decks: map[string]*deck{}}
}

// deck deals the values 0..n-1 in a fresh seeded shuffle per round.
type deck struct {
	order []int
	next  int
}

// deal returns the next card of the named deck of n cards.
func (g *generator) deal(name string, n int) int {
	d := g.decks[name]
	if d == nil {
		d = &deck{order: make([]int, n), next: n}
		for i := range d.order {
			d.order[i] = i
		}
		g.decks[name] = d
	}
	if d.next == len(d.order) {
		g.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

func (g *generator) next() request { return g.w.next(g) }

// freshSeed draws a campaign seed no earlier request used (with
// overwhelming probability), so every point misses the memo cache.
func (g *generator) freshSeed() int64 { return g.rng.Int63() }

func coldSweep(g *generator) request {
	k := g.w.keys[g.deal("key", len(g.w.keys))]
	return g.env.sweep(k, g.freshSeed(), g.w.workers)
}

// warmKinds deals warm-query-mix's request kinds in these proportions
// out of 20: 50% /optimize, 30% /sweep replays, 15% /measure replays,
// 5% fresh-seed /measure.
var warmKinds = [20]byte{
	'o', 'o', 'o', 'o', 'o', 'o', 'o', 'o', 'o', 'o',
	's', 's', 's', 's', 's', 's', 'm', 'm', 'm', 'f',
}

func warmMix(g *generator) request {
	e := g.env
	switch warmKinds[g.deal("kind", len(warmKinds))] {
	case 'o':
		qs := e.queries[g.deal("query-key", len(e.queries))]
		return qs[g.rng.Intn(len(qs))]
	case 's':
		p := e.prefill[g.deal("sweep", len(e.prefill))]
		r := e.sweep(p.key, p.seed, g.w.workers)
		r.expect = p.body
		return r
	case 'm':
		p := e.prefill[g.deal("measure", len(e.prefill))]
		cs := e.configs[p.key]
		return e.measure(p.key, cs[g.rng.Intn(len(cs))], p.seed)
	default:
		cs := e.configs[freshMeasureKey]
		return e.measure(freshMeasureKey, cs[g.rng.Intn(len(cs))], g.freshSeed())
	}
}

// env is the per-run state requests are generated from: every key's
// configuration list and, for warm-query-mix, the pre-filled campaigns
// and the /optimize query table checked against them.
type env struct {
	configs map[key][]string
	prefill []prefilled
	// queries[i] holds the /optimize requests for warmKeys[i], each with
	// its oracle reply.
	queries [][]request
}

// prefilled is one set-up sweep of warm-query-mix and its reply.
type prefilled struct {
	key  key
	seed int64
	body []byte
}

// newEnv enumerates the configurations of every key the workload
// touches.
func newEnv(w *workload) (*env, error) {
	e := &env{configs: map[key][]string{}}
	keys := append([]key(nil), w.keys...)
	keys = append(keys, freshMeasureKey)
	for _, k := range keys {
		dev, err := device.Open(k.Device)
		if err != nil {
			return nil, err
		}
		cs, err := dev.Configs(k.workload())
		if err != nil {
			return nil, fmt.Errorf("%v: %w", k, err)
		}
		names := make([]string, len(cs))
		for i, c := range cs {
			names[i] = c.Key()
		}
		e.configs[k] = names
	}
	return e, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request bodies are plain structs; failure is a bug
	}
	return b
}

func (e *env) sweep(k key, seed int64, workers int) request {
	return request{
		ep: epSweep, key: k, seed: seed, workers: workers, path: "/sweep",
		body:   mustJSON(service.SweepRequest{Device: k.Device, Workload: k.workload(), Seed: seed, Workers: workers}),
		points: len(e.configs[k]),
	}
}

func (e *env) measure(k key, config string, seed int64) request {
	return request{
		ep: epMeasure, key: k, seed: seed, config: config, path: "/measure",
		body:   mustJSON(service.MeasureRequest{Device: k.Device, Workload: k.workload(), Config: config, Seed: seed}),
		points: 1,
	}
}

// optimize builds a GET /optimize request; exactly one of maxTime and
// maxEnergy is positive.
func optimize(k key, maxTime, maxEnergy float64) request {
	q := url.Values{}
	q.Set("device", k.Device)
	q.Set("app", k.App)
	q.Set("n", strconv.Itoa(k.N))
	q.Set("products", strconv.Itoa(k.Products))
	if maxTime > 0 {
		q.Set("max_time", strconv.FormatFloat(maxTime, 'g', -1, 64))
	}
	if maxEnergy > 0 {
		q.Set("max_energy", strconv.FormatFloat(maxEnergy, 'g', -1, 64))
	}
	return request{ep: epOptimize, key: k, maxTime: maxTime, maxEnergy: maxEnergy, path: "/optimize?" + q.Encode()}
}
