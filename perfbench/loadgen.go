package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries a request's trace ID from the load generator to the
// traced handler wrapper.
const traceHeader = "X-Bench-Trace"

type reqKind uint8

const (
	kindObserve reqKind = iota
	kindCount
	kindMetrics
)

// job is one scheduled request of an open-loop step.
type job struct {
	kind  reqKind
	site  int
	count int64
}

// outcome is what happened to one job. Each slot is written by the one
// worker that took the job and read after every worker has exited.
type outcome struct {
	due, released, sent, done time.Time
	err                       bool
	abandoned                 bool
	est                       float64
	lo, hi                    int64 // acknowledged / sent elements around a count query
}

// pace releases jobs 0..n-1 on the open-loop schedule start + i/rate. Every
// job already due is released at once, and the pacer sleeps only until the
// next due time, so a late wake-up is caught up in one burst instead of
// shifting the rest of the schedule. release gets the job's due time.
func pace(w *waiter, start time.Time, rate float64, n int, release func(i int, due time.Time)) error {
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) * 1e9 / rate)) }
	for i := 0; i < n; {
		now := time.Now()
		for i < n && !due(i).After(now) {
			release(i, due(i))
			i++
		}
		if i < n {
			if err := w.wait(time.Until(due(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadgen drives an HTTP deployment of the count tracker on an open-loop
// schedule over a fixed set of keep-alive connections.
type loadgen struct {
	base    string
	clients []*http.Client
	tr      *tracer
	nextID  atomic.Int64

	acked     atomic.Int64 // elements of POSTs answered 200
	sentElems atomic.Int64 // elements of POSTs sent
	lostElems atomic.Int64 // elements of POSTs that failed (applied or not)
}

// newLoadgen opens conns single-connection clients against base.
func newLoadgen(base string, conns int, tr *tracer) *loadgen {
	g := &loadgen{base: base, tr: tr}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// plan draws the request mix of one step: 80% observes of 1–100 elements
// at a uniform site, 20% count queries, and one /metrics scrape per second.
func plan(rng *rand.Rand, rate float64, n, k int) []job {
	jobs := make([]job, n)
	perSec := int(rate)
	for i := range jobs {
		switch {
		case i%perSec == 0:
			jobs[i] = job{kind: kindMetrics}
		case rng.IntN(5) == 0:
			jobs[i] = job{kind: kindCount}
		default:
			jobs[i] = job{kind: kindObserve, site: rng.IntN(k), count: 1 + rng.Int64N(100)}
		}
	}
	return jobs
}

// grace is how long an overloaded step may drain past its schedule.
const grace = 500 * time.Millisecond

// runStep offers jobs at rate, starting now, with one worker per
// connection. A job not yet sent grace after the schedule ends is
// abandoned, which bounds an overloaded step's drain.
func (g *loadgen) runStep(w *waiter, jobs []job, rate float64, grace time.Duration) ([]outcome, error) {
	out := make([]outcome, len(jobs))
	ch := make(chan int, len(jobs)) // sized to the number of sends: the pacer never blocks
	start := time.Now().Add(time.Millisecond)
	cutoff := start.Add(time.Duration(float64(len(jobs))*1e9/rate) + grace)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range ch {
				o := &out[i]
				if time.Now().After(cutoff) {
					o.abandoned = true
					continue
				}
				g.do(c, jobs[i], o)
			}
		}(c)
	}
	err := pace(w, start, rate, len(jobs), func(i int, due time.Time) {
		out[i].due, out[i].released = due, time.Now()
		ch <- i
	})
	close(ch)
	wg.Wait()
	return out, err
}

// do sends one request and fills o.
func (g *loadgen) do(c *http.Client, j job, o *outcome) {
	id := g.nextID.Add(1)
	t0 := g.tr.now()
	var req *http.Request
	var err error
	switch j.kind {
	case kindObserve:
		body := `{"site":` + strconv.Itoa(j.site) + `,"count":` + strconv.FormatInt(j.count, 10) + `}`
		req, err = http.NewRequest(http.MethodPost, g.base+"/v1/observe", strings.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		g.sentElems.Add(j.count)
	case kindCount:
		req, err = http.NewRequest(http.MethodGet, g.base+"/v1/count", nil)
		o.lo = g.acked.Load()
	default:
		req, err = http.NewRequest(http.MethodGet, g.base+"/metrics", nil)
	}
	if err != nil {
		o.err = true
		return
	}
	if g.tr != nil {
		req.Header.Set(traceHeader, strconv.FormatInt(id, 10))
	}
	o.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		o.done, o.err = time.Now(), true
		if j.kind == kindObserve {
			g.lostElems.Add(j.count)
		}
		return
	}
	var body []byte
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	g.tr.add("loadgen.request", id, 0, t0)
	if err != nil || resp.StatusCode/100 != 2 {
		o.err = true
		if j.kind == kindObserve {
			g.lostElems.Add(j.count)
		}
		return
	}
	switch j.kind {
	case kindObserve:
		g.acked.Add(j.count)
	case kindCount:
		o.hi = g.sentElems.Load()
		var doc struct {
			Estimate float64 `json:"estimate"`
		}
		if json.Unmarshal(body, &doc) != nil {
			o.err = true
			return
		}
		o.est = doc.Estimate
	}
}

// stepStats is the summary of one open-loop rate step.
type stepStats struct {
	Rate      float64 `json:"rate"`
	Sent      int     `json:"sent"`
	Failed    int     `json:"failed"`
	Abandoned int     `json:"abandoned"`
	Checks    int     `json:"count_checks"`
	Misses    int     `json:"count_misses"`
	SentPerS  float64 `json:"sent_per_s"`
	AckElems  int64   `json:"acked_elems"`
	ElemsPerS float64 `json:"acked_elems_per_s"`
	AllMS     dist    `json:"latency_ms"`
	ObserveUS dist    `json:"observe_us"`
	CountUS   dist    `json:"count_us"`
	LagMS     dist    `json:"lag_ms"`
	// The window figures are medians over the step's one-second windows
	// of each window's median and tail.
	ObserveP50US   float64 `json:"observe_window_p50_us"`
	ObserveTailUS  float64 `json:"observe_window_tail_us"`
	CountP50US     float64 `json:"count_window_p50_us"`
	CountTailUS    float64 `json:"count_window_tail_us"`
	ObserveWindows []dist  `json:"observe_windows_us"`
	CountWindows   []dist  `json:"count_windows_us"`
	// OK reports whether the step met the latency limit (p99 of every
	// request, from its due time, within limitMS) while the generator kept
	// to its schedule (its lateness p99 also within limitMS) and nothing was
	// abandoned.
	OK bool `json:"ok"`
}

const limitMS = 10.0

// summarizeStep reduces a step's outcomes. Latency is measured from each
// request's due time, so a stall also delays the requests queued behind it.
func summarizeStep(rate float64, jobs []job, out []outcome, eps float64) stepStats {
	st := stepStats{Rate: rate}
	var all, obs, cnt, lag []float64
	var obsWin, cntWin [][]float64
	window := func(ws [][]float64, o outcome, v float64) [][]float64 {
		i := int(o.due.Sub(out[0].due) / time.Second)
		for len(ws) <= i {
			ws = append(ws, nil)
		}
		ws[i] = append(ws[i], v)
		return ws
	}
	var first, last time.Time
	for i, o := range out {
		if o.abandoned {
			st.Abandoned++
			continue
		}
		st.Sent++
		if first.IsZero() || (!o.sent.IsZero() && o.sent.Before(first)) {
			first = o.sent
		}
		if o.done.After(last) {
			last = o.done
		}
		lag = append(lag, ms(o.released.Sub(o.due)))
		if o.err {
			st.Failed++
			continue
		}
		lat := o.done.Sub(o.due)
		switch jobs[i].kind {
		case kindObserve:
			st.AckElems += jobs[i].count
			obs = append(obs, us(lat))
			obsWin = window(obsWin, o, us(lat))
			all = append(all, ms(lat))
		case kindCount:
			cnt = append(cnt, us(lat))
			cntWin = window(cntWin, o, us(lat))
			all = append(all, ms(lat))
			st.Checks++
			if !withinBracket(o.est, o.lo, o.hi, eps) {
				st.Misses++
			}
		}
	}
	if wall := last.Sub(first).Seconds(); wall > 0 {
		st.SentPerS = float64(st.Sent) / wall
		st.ElemsPerS = float64(st.AckElems) / wall
	}
	st.AllMS = summarize(all, 0.99)
	st.ObserveUS = summarize(obs, 0.99)
	st.CountUS = summarize(cnt, 0.99)
	st.LagMS = summarize(lag, 0.99)
	st.ObserveP50US, st.ObserveTailUS, st.ObserveWindows = windowed(obsWin)
	st.CountP50US, st.CountTailUS, st.CountWindows = windowed(cntWin)
	st.OK = st.Abandoned == 0 && st.Failed == 0 && st.AllMS.Tail <= limitMS && st.LagMS.Tail <= limitMS
	return st
}

// withinBracket reports whether est is within ε of some count in [lo, hi]:
// lo is what was acknowledged before the query was sent, hi what had been
// sent when its answer came back. The tolerance is ε·hi, and at least one
// element so an empty tracker may answer 0 or 1.
func withinBracket(est float64, lo, hi int64, eps float64) bool {
	tol := eps * float64(hi)
	if tol < 1 {
		tol = 1
	}
	return est >= float64(lo)-tol && est <= float64(hi)+tol
}

// post sends an empty POST and drains the answer.
func post(c *http.Client, url string) (int, error) {
	resp, err := c.Post(url, "application/json", nil)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// getJSON fetches url into v, requiring 200.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// offer runs the rate ladder against the load generator's target and
// summarizes each step. With more than one step it calls between (which
// may be nil) before the last one.
func (g *loadgen) offer(rates []float64, step time.Duration, seed uint64, between func()) ([]stepStats, error) {
	wt, err := newWaiter()
	if err != nil {
		return nil, err
	}
	defer wt.close()
	rng := newRNG(mix(seed, 1))
	var steps []stepStats
	for i, rate := range rates {
		if i > 0 && i == len(rates)-1 && between != nil {
			between()
		}
		jobs := plan(rng, rate, int(rate*step.Seconds()), httpK)
		out, err := g.runStep(wt, jobs, rate, grace)
		if err != nil {
			return steps, err
		}
		steps = append(steps, summarizeStep(rate, jobs, out, eps))
	}
	return steps, nil
}
