package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"disttrack"
	"disttrack/internal/serve"
)

const (
	httpK     = 64
	httpConns = 2 // one connection per core of the reference box
	// httpSetups is how many times a run builds the whole served stack to
	// measure set-up time.
	httpSetups = 25
	// rate4k is the step whose latencies are the end-to-end metrics.
	rate4k = 4000.0
)

// httpRates is the open-loop ladder, in requests per second. The top step
// is beyond what two connections carry on a 2-core box, so its achieved
// element rate measures the served stack's capacity.
var httpRates = []float64{2000, 4000, 8000, 16000}

var countHTTP = workload{
	name: "count-http",
	why:  "randomized count tracking served over HTTP under open-loop load: serve and net/http dominate, and reads contend with ingest",
	params: map[string]any{"tracker": "count", "algorithm": "randomized", "k": httpK, "epsilon": eps,
		"transport": "goroutine", "concurrent_ingest": true, "server": "internal/serve on 127.0.0.1",
		"connections": httpConns, "rates_per_s": httpRates,
		"mix":              "80% POST /v1/observe (count 1-100, uniform site), 20% GET /v1/count, one GET /metrics per second",
		"latency_limit_ms": limitMS},
	run: runCountHTTP,
}

func httpOpts(seed uint64) disttrack.Options {
	return disttrack.Options{K: httpK, Epsilon: eps, Seed: seed, Transport: disttrack.TransportGoroutine,
		ConcurrentIngest: true}
}

// httpStack is the served count tracker, composed as tracksim's
// `serve -local -http` composes it.
type httpStack struct {
	t      *disttrack.CountTracker
	hs     *http.Server
	served chan struct{}
	base   string
	reqs   atomic.Int64 // traced only
	non2xx atomic.Int64
}

func startHTTP(seed uint64, tr *tracer) (*httpStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpStack{t: disttrack.NewCountTracker(httpOpts(seed)), served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	api := &serve.Server{Backend: countFuncs(s.t, tr), Info: serve.Info{Problem: "count",
		Algorithm: "randomized", Transport: "goroutine", Topology: "flat", K: httpK, Epsilon: eps}}
	h := api.Handler()
	if tr != nil {
		h = s.traced(h, tr)
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once close is called
	}()
	return s, nil
}

// close stops the server, waits for it, and closes the tracker.
func (s *httpStack) close() error {
	err := s.hs.Close()
	<-s.served
	if terr := s.t.Close(); err == nil {
		err = terr
	}
	return err
}

// countFuncs wires the tracker into the serving surface. With a tracer,
// every backend call records a serve.backend span around the facade call
// it makes.
func countFuncs(t *disttrack.CountTracker, tr *tracer) serve.Funcs {
	f := serve.Funcs{
		CountFn: func() (float64, error) { return t.Estimate(), nil },
		ObserveFn: func(site int, _ int64, _ float64, n int64) error {
			t.ObserveBatch(site, int(n))
			return nil
		},
		FlushFn:    t.Flush,
		SnapshotFn: func() (serve.Snapshot, error) { return snapshotOf(t.Metrics()), nil },
	}
	if tr == nil {
		return f
	}
	wrap := func(layer string, call func() error) error {
		bid, b0 := tr.newID(), tr.now()
		f0 := tr.now()
		err := call()
		tr.add(layer, 0, bid, f0)
		tr.end(bid, "serve.backend", 0, 0, b0)
		return err
	}
	return serve.Funcs{
		CountFn: func() (v float64, err error) {
			err = wrap("disttrack.query", func() error { v, err = f.CountFn(); return err })
			return v, err
		},
		ObserveFn: func(site int, item int64, value float64, n int64) error {
			return wrap("disttrack.observe", func() error { return f.ObserveFn(site, item, value, n) })
		},
		FlushFn: func() error { return wrap("disttrack.flush", f.FlushFn) },
		SnapshotFn: func() (snap serve.Snapshot, err error) {
			err = wrap("disttrack.metrics", func() error { snap, err = f.SnapshotFn(); return err })
			return snap, err
		},
	}
}

func snapshotOf(m disttrack.Metrics) serve.Snapshot {
	return serve.Snapshot{Arrivals: m.Arrivals, MessagesUp: m.MessagesUp, MessagesDown: m.MessagesDown,
		WordsUp: m.WordsUp, WordsDown: m.WordsDown, Broadcasts: m.Broadcasts, Dropped: m.Dropped,
		LiveSites: m.LiveSites, MaxSiteSpace: m.MaxSiteSpace, MaxCoordSpace: m.MaxCoordSpace,
		Snapshots: m.Snapshots, ReplayedFrames: m.ReplayedFrames, Resyncs: m.Resyncs, Depth: m.Depth,
		LevelMessages: m.LevelMessages, LevelWords: m.LevelWords}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traced wraps the API handler in a serve.handler span carrying the
// load generator's trace ID, and counts requests and non-2xx answers.
func (s *httpStack) traced(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := tr.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		id, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64) // 0 (untraced) for requests without one
		tr.add("serve.handler", id, 0, t0)
		s.reqs.Add(1)
		if sw.status/100 != 2 {
			s.non2xx.Add(1)
		}
	})
}

// observeOnce posts one element, the first a fresh stack accepts.
func observeOnce(c *http.Client, base string) error {
	resp, err := c.Post(base+"/v1/observe", "application/json", strings.NewReader(`{"site":0,"count":1}`))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first observe: status %d", resp.StatusCode)
	}
	return nil
}

// httpRun is what one count-http run measured.
type httpRun struct {
	steps   []stepStats
	acked   int64
	m       disttrack.Metrics
	cost    disttrack.Metrics // before the top step
	alloc   uint64
	heap    int64
	gcs     uint32
	pause   time.Duration
	spans   []span
	reqs    int64
	non2xx  int64
	checked bool
}

func runCountHTTP(e *env) {
	var setups []float64
	for i := 0; i < httpSetups; i++ {
		t0 := time.Now()
		s, err := startHTTP(mix(e.seed, uint64(100+i)), nil)
		if err != nil {
			e.failed++
			e.violate("start server: %v", err)
			return
		}
		client := &http.Client{Timeout: 30 * time.Second}
		err = observeOnce(client, s.base)
		setups = append(setups, time.Since(t0).Seconds())
		client.CloseIdleConnections()
		e.attempted++
		if err != nil {
			e.failed++
			e.violate("set-up: %v", err)
		}
		if err := s.close(); err != nil {
			e.failed++
			e.violate("close: %v", err)
		}
	}
	e.set("setup_s", median(setups))
	e.detail("setup_s", setups)

	step := time.Duration(e.seconds / float64(len(httpRates)) * float64(time.Second))
	if !e.trace {
		r := driveHTTP(e, httpRates, step, nil)
		reportHTTP(e, r)
		return
	}
	// Traced run: the 4000 req/s step untraced and traced, for the tracing
	// overhead, then the whole ladder traced, then the layer ladder.
	short := step / 2
	u := driveHTTP(e, []float64{rate4k}, short, nil)
	tr := newTracer()
	t := driveHTTP(e, []float64{rate4k}, short, tr)
	if len(u.steps) > 0 && len(t.steps) > 0 {
		e.set("trace.overhead_frac", per(t.steps[0].AllMS.P50, u.steps[0].AllMS.P50)-1)
	}
	r := driveHTTP(e, httpRates, short, tr)
	reportHTTP(e, r)
	traceHTTP(e, r)
	runLadder(e, httpLadder, mix(e.seed, 0))
}

// driveHTTP serves a fresh stack, offers it the rate ladder from the load
// generator, then flushes and checks the served count against the
// acknowledged elements.
func driveHTTP(e *env, rates []float64, step time.Duration, tr *tracer) httpRun {
	var r httpRun
	base := liveHeap()
	s, err := startHTTP(mix(e.seed, 0), tr)
	if err != nil {
		e.failed++
		e.violate("start server: %v", err)
		return r
	}
	g := newLoadgen(s.base, httpConns, tr)
	ms0 := memstats()
	// The cost figures are read before the top step, which may overload the
	// stack: up to there every run serves the same schedule, so they cover
	// the same number of elements whatever the host's speed.
	r.steps, err = g.offer(rates, step, e.seed, func() {
		if ferr := s.t.Flush(); ferr != nil {
			e.failed++
			e.violate("flush: %v", ferr)
		}
		r.cost = s.t.Metrics()
	})
	ms1 := memstats()
	g.close()
	if err != nil {
		e.failed++
		e.violate("load generator: %v", err)
	}
	r.acked = g.acked.Load()
	r.alloc, r.gcs, r.pause = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC, time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)
	client := &http.Client{Timeout: 30 * time.Second}
	r.checked = err == nil && checkServed(e, client, s.base, r.acked, g.lostElems.Load())
	client.CloseIdleConnections()
	r.m = s.t.Metrics()
	r.heap = liveHeap() - base
	r.reqs, r.non2xx = s.reqs.Load(), s.non2xx.Load()
	if err := s.close(); err != nil {
		e.failed++
		e.violate("close: %v", err)
	}
	r.spans = tr.take()
	for _, st := range r.steps {
		e.attempted += int64(st.Sent)
		e.failed += int64(st.Failed)
	}
	if r.m.Dropped != 0 {
		e.failed += r.m.Dropped
		e.violate("%d elements dropped", r.m.Dropped)
	}
	return r
}

// checkServed is the end-of-run gate, as `tracksim loadgen -check` makes
// it: flush, then the served arrivals must account for every acknowledged
// element (and at most the elements of failed posts beyond them), and the
// served count must be within ε of the arrivals.
func checkServed(e *env, c *http.Client, base string, acked, lost int64) bool {
	e.attempted += 3
	if status, err := post(c, base+"/v1/flush"); err != nil || status != http.StatusOK {
		e.failed++
		e.violate("flush: status %d, %v", status, err)
		return false
	}
	var health struct {
		Arrivals int64 `json:"arrivals"`
	}
	if err := getJSON(c, base+"/v1/healthz", &health); err != nil {
		e.failed++
		e.violate("healthz: %v", err)
		return false
	}
	var cnt struct {
		Estimate float64 `json:"estimate"`
	}
	if err := getJSON(c, base+"/v1/count", &cnt); err != nil {
		e.failed++
		e.violate("count: %v", err)
		return false
	}
	ok := true
	if health.Arrivals < acked || health.Arrivals > acked+lost {
		e.violate("served %d arrivals for %d acknowledged elements (%d in failed posts)", health.Arrivals, acked, lost)
		ok = false
	}
	if math.Abs(cnt.Estimate-float64(health.Arrivals)) > eps*float64(health.Arrivals) {
		e.violate("served count %.0f is not within ε of %d arrivals", cnt.Estimate, health.Arrivals)
		ok = false
	}
	return ok
}

// reportHTTP sets the end-to-end metrics of a count-http run.
func reportHTTP(e *env, r httpRun) {
	if len(r.steps) == 0 {
		return
	}
	var at4k, top stepStats
	checks, misses := 1, 0
	if !r.checked {
		misses = 1
	}
	maxOK := 0.0
	for _, st := range r.steps {
		if st.Rate == rate4k {
			at4k = st
		}
		if st.Rate >= top.Rate {
			top = st
		}
		if st.OK && st.Rate > maxOK {
			maxOK = st.Rate
		}
		checks += st.Checks
		misses += st.Misses
	}
	e.set("elems_per_s", top.ElemsPerS)
	cost := r.cost
	if cost.Arrivals == 0 { // a single-step run
		cost = r.m
	}
	e.set("words_per_kelem", perK(cost.Words, cost.Arrivals))
	e.set("msgs_per_kelem", perK(cost.Messages, cost.Arrivals))
	e.set("eps_ok_frac", 1-per(float64(misses), float64(checks)))
	e.set("ok_frac", 1-per(float64(e.failed), float64(e.attempted)))
	e.set("latency.query_p50_us", at4k.CountP50US)
	e.set("latency.query_tail_us", at4k.CountTailUS)
	e.set("latency.observe_p50_us", at4k.ObserveP50US)
	e.set("latency.observe_tail_us", at4k.ObserveTailUS)
	e.set("alloc_bytes_per_elem", per(float64(r.alloc), float64(r.acked)))
	e.set("heap_inuse_mb", float64(r.heap)/(1<<20))
	e.set("loadgen.max_ok_rps", maxOK)
	e.set("loadgen.lag_p99_ms", at4k.LagMS.Tail)
	e.set("loadgen.sent_per_s", at4k.SentPerS)
	e.detail("steps", r.steps)
	e.detail("checks", checks)
	e.detail("misses", misses)
	if float64(misses) > missBudget*float64(checks) {
		e.violate("%d of %d count answers outside ε of their bracket (budget %.0f%%)", misses, checks, 100*missBudget)
	}
}

// traceHTTP derives the serve and ingest layer metrics from a traced run's
// spans: each handler span is the child of the load generator's request
// span with its trace ID, and each backend span the child of the handler
// span that encloses it.
func traceHTTP(e *env, r httpRun) {
	spans := r.spans
	byTrace := map[int64]int64{}
	for _, s := range spans {
		if s.Layer == "loadgen.request" {
			byTrace[s.Trace] = s.ID
		}
	}
	for i := range spans {
		if spans[i].Layer == "serve.handler" {
			spans[i].Parent = byTrace[spans[i].Trace]
		}
	}
	adopt(spans, "serve.backend", "serve.handler")
	self := selfTimes(spans)
	h := summarize(layerSamples(spans, self, "serve.handler", true), 0.99)
	b := summarize(layerSamples(spans, self, "serve.backend", false), 0.99)
	l := summarize(layerSamples(spans, self, "loadgen.request", true), 0.99)
	e.set("serve.requests", float64(r.reqs))
	e.set("serve.non2xx", float64(r.non2xx))
	e.set("serve.handler_self_us_p50", h.P50)
	e.set("serve.handler_self_us_p99", h.Tail)
	e.set("serve.backend_us_p50", b.P50)
	e.set("serve.backend_us_p99", b.Tail)
	e.set("loadgen.request_self_us_p50", l.P50)
	obs := layerTotal(spans, "disttrack.observe")
	e.set("ingest.observe_ns_per_elem", per(float64(obs.Nanoseconds()), float64(r.acked)))
	e.set("ingest.flush_ms_p99", summarize(layerSamples(spans, nil, "disttrack.flush", false), 0.99).Tail/1e3)
	e.set("ingest.query_wait_us_p99", summarize(layerSamples(spans, nil, "disttrack.query", false), 0.99).Tail)
	e.set("ingest.dropped", float64(r.m.Dropped))
	setStackMetrics(e, r.m, r.gcs, r.pause)
	e.detail("serve_handler_self_us", h)
	e.detail("serve_backend_us", b)
	e.detail("loadgen_request_self_us", l)
	if err := writeSpans(spanPath(e), spans); err != nil {
		e.detail("span_write_error", err.Error())
	}
}
