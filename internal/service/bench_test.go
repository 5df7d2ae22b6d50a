package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// BenchmarkOptimizeQuery drives the /optimize serving path at high
// concurrency against an index populated by a real sweep. The endpoint
// answers from the incremental Pareto index — one binary search over a
// sorted front, no device work — so its tail latency is what makes "ask the service
// instead of re-measuring" viable; the benchmark reports the measured
// p99 across all goroutines as the custom p99-ns metric (ns/op is the
// mean). The sub-millisecond p99 claim in DESIGN.md reads off this
// benchmark's output.
func BenchmarkOptimizeQuery(b *testing.B) {
	s := New()
	h := s.Handler()

	// Populate the index with a full measured sweep (110 configurations
	// on the P100's N=4096 space), exactly as a client would.
	seed := httptest.NewRecorder()
	h.ServeHTTP(seed, httptest.NewRequest(http.MethodPost, "/sweep",
		strings.NewReader(`{"device":"p100","workload":{"n":4096,"products":2},"seed":9,"workers":8}`)))
	if seed.Code != http.StatusOK {
		b.Fatalf("seeding sweep: status %d: %s", seed.Code, seed.Body.String())
	}

	// Two query shapes alternate per op: an energy budget and a time
	// bound, the endpoint's two constraint paths. The
	// loose bounds keep both feasible so every request is a 200.
	urls := [2]string{
		"/optimize?device=p100&n=4096&products=2&max_energy=1e12",
		"/optimize?device=p100&n=4096&products=2&max_time=1e12",
	}
	for _, u := range urls {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, u, nil))
		if rr.Code != http.StatusOK {
			b.Fatalf("warmup %s: status %d: %s", u, rr.Code, rr.Body.String())
		}
	}

	var mu sync.Mutex
	var all []time.Duration
	b.SetParallelism(8) // 8 goroutines per GOMAXPROCS: a contended serving path
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lat := make([]time.Duration, 0, 1024)
		i := 0
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, urls[i&1], nil)
			i++
			rr := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rr, req)
			lat = append(lat, time.Since(start))
			if rr.Code != http.StatusOK {
				b.Errorf("status %d: %s", rr.Code, rr.Body.String())
				return
			}
		}
		mu.Lock()
		all = append(all, lat...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	b.ReportMetric(float64(p99), "p99-ns")
	if testing.Verbose() {
		fmt.Printf("optimize: %d requests, p50=%v p99=%v max=%v\n",
			len(all), all[len(all)/2], p99, all[len(all)-1])
	}
}
