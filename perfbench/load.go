package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"energyprop/internal/service"
)

// server is the real service on a loopback listener, served the way
// cmd/epmeterd serves it.
type server struct {
	srv  *http.Server
	base string
	done chan error
	// traced switches the span middleware on; nil when untraced.
	traced *atomic.Bool
}

// spanHeader carries the client span id to the server middleware, which
// records the handler span as its child.
const spanHeader = "X-Perfbench-Span"

func startServer(tr *tracer) (*server, error) {
	s := &server{done: make(chan error, 1)}
	h := service.New().Handler()
	if tr != nil {
		s.traced = new(atomic.Bool)
		h = spanMiddleware(h, tr, s.traced)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// spanMiddleware times the service handler while on is set.
func spanMiddleware(h http.Handler, tr *tracer, on *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
		if err != nil {
			parent = -1
		}
		req := int64(-1)
		if parent >= 0 {
			req = tr.reqOf(int32(parent))
		}
		id := tr.begin("service.handler."+strings.TrimPrefix(r.URL.Path, "/"), req, int32(parent))
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// reqOf returns the request id of span id.
func (t *tracer) reqOf(id int32) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return -1
	}
	return t.spans[id].Req
}

// client is one closed-loop caller: it sends its next request only
// after the previous reply has been read.
type client struct {
	id   int
	gen  *generator
	http *http.Client
	base string
	// keep draws the reservoir sample of replies beyond the first
	// verifyFirst; nil keeps no replies at all.
	keep *rand.Rand
	seq  int
	// kept are replies retained for the post-run output check: the first
	// verifyFirst, then a uniform sample of verifySample of the rest
	// that have no expected body. A fixed sample size keeps the memory
	// the check costs independent of throughput.
	kept     []keptReply
	eligible int // replies the sample was drawn from
	win      windowStats
}

type keptReply struct {
	seq  int
	r    request
	body []byte
}

// Reply checking: the first verifyFirst replies of every client are
// checked and digested, plus a uniform sample of verifySample later ones.
const (
	verifyFirst  = 16
	verifySample = 32
)

func newClients(w *workload, e *env, seed int64, base string, hc *http.Client) []*client {
	n := clientCount(w)
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			id: i, gen: newGenerator(w, e, seed, i), http: hc, base: base,
			keep: rand.New(rand.NewSource(mixSeed(seed, uint64(i)+1<<16))),
		}
	}
	return cs
}

// clientCount caps a workload's clients at the machine's CPU count.
func clientCount(w *workload) int { return max(1, min(w.clients, runtime.NumCPU())) }

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send performs one request and returns the reply body of a 200.
func send(ctx context.Context, hc *http.Client, base string, r request, span int32) ([]byte, error) {
	method := http.MethodGet
	var body io.Reader
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, base+r.path, body)
	if err != nil {
		return nil, err
	}
	if span >= 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, r.path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// windowStats is what one load window measured.
type windowStats struct {
	elapsed   time.Duration
	attempted int
	failed    int
	points    int
	lat       [numEndpoints][]float64 // ms
	firstErr  error
}

func (a *windowStats) merge(b *windowStats) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.points += b.points
	for e := range a.lat {
		a.lat[e] = append(a.lat[e], b.lat[e]...)
	}
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

func (a *windowStats) done() int { return a.attempted - a.failed }

// rate returns completed requests per second.
func (a *windowStats) rate() float64 { return ratio(float64(a.done()), a.elapsed.Seconds()) }

// step sends the client's next request.
func (c *client) step(ctx context.Context, tr *tracer, traced bool) {
	c.do(ctx, c.gen.next(), tr, traced)
}

// do sends r and records it in c.win; with traced set it records a
// client span that the server's handler span becomes a child of.
func (c *client) do(ctx context.Context, r request, tr *tracer, traced bool) {
	seq := c.seq
	c.seq++
	req := int64(c.id)<<32 | int64(seq)
	span := int32(-1)
	if traced {
		span = tr.begin("http."+r.ep.String(), req, -1)
	}
	t0 := time.Now()
	body, err := send(ctx, c.http, c.base, r, span)
	lat := time.Since(t0)
	tr.end(span)
	c.win.attempted++
	if err == nil && r.expect != nil && !bytes.Equal(body, r.expect) {
		err = fmt.Errorf("%s reply differs from the oracle:\n got %s\nwant %s", r.path, body, r.expect)
	}
	if err != nil {
		c.win.failed++
		if c.win.firstErr == nil {
			c.win.firstErr = err
		}
		return
	}
	c.win.points += r.points
	c.win.lat[r.ep] = append(c.win.lat[r.ep], float64(lat.Nanoseconds())/1e6)
	switch {
	case c.keep == nil:
	case seq < verifyFirst:
		c.kept = append(c.kept, keptReply{seq: seq, r: r, body: body})
	case r.expect == nil:
		// Reservoir sampling (Algorithm R) over the eligible replies.
		c.eligible++
		k := keptReply{seq: seq, r: r, body: body}
		if n := len(c.kept) - verifyFirst; n < verifySample {
			c.kept = append(c.kept, k)
		} else if j := c.keep.Intn(c.eligible); j < verifySample {
			c.kept[verifyFirst+j] = k
		}
	}
}

// runWindow drives every client in a closed loop for d and merges what
// they measured. With traced set, the clients and the server middleware
// record spans.
func runWindow(ctx context.Context, s *server, clients []*client, d time.Duration, tr *tracer, traced bool) windowStats {
	if s.traced != nil {
		s.traced.Store(traced)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for _, c := range clients {
		c.win = windowStats{}
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				c.step(ctx, tr, traced)
			}
		}()
	}
	wg.Wait()
	out := windowStats{elapsed: time.Since(start)}
	for _, c := range clients {
		out.merge(&c.win)
	}
	return out
}

// sortedLat returns the window's latencies for e, sorted.
func (a *windowStats) sortedLat(e endpoint) []float64 {
	v := append([]float64(nil), a.lat[e]...)
	sort.Float64s(v)
	return v
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, found := 0.0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err = strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			found = err == nil
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = sc.Err()
	}
	if err == nil && !found {
		err = errors.New("no VmHWM line in /proc/self/status")
	}
	return kb / 1024, err
}
