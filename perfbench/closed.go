package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync/atomic"
	"time"

	"disttrack"
)

// Every closed-loop workload checkpoints its answers every checkEvery
// elements and times one Observe in sampleEvery (timing every call would
// add two clock reads to sub-microsecond work).
const (
	checkEvery  = 10000
	sampleEvery = 64
	eps         = 0.05
	// missBudget is the share of checkpoint answers a randomized tracker may
	// get wrong: the paper's guarantee holds at each instant with
	// probability at least 0.9. Deterministic trackers get none.
	missBudget = 0.1
	// minPasses is the fewest passes a run aggregates, and minSetups the
	// fewest set-up measurements whose median it reports.
	minPasses = 3
	minSetups = 15
)

// pass is one fixed-size run of a closed-loop workload on a fresh tracker.
type pass struct {
	setup  time.Duration
	ingest time.Duration // first arrival until the final Flush returned, less serial checkpoint time
	elems  int64
	m      disttrack.Metrics
	alloc  uint64 // bytes allocated from first arrival to the final Flush
	heap   int64  // live heap the tracker holds after a final GC
	gcs    uint32
	pause  time.Duration
	store  *timedStore // the traced store wrapper, when the stack persists
}

func (p pass) rate() float64 { return per(float64(p.elems), p.ingest.Seconds()) }

// closedRun accumulates samples and checks over the passes of one run.
type closedRun struct {
	e        *env
	tr       *tracer // nil when untraced
	queries  []float64
	observes []float64
	// qMarks and oMarks are where each pass's samples start: the tails
	// are taken per pass.
	qMarks, oMarks []int
	flushes        []float64 // ms
	checks         int
	misses         int
	strict         bool // deterministic tracker: every miss fails the run
}

// closedSpec describes a closed-loop workload: a producer that calls
// Observe back to back and checkpoints answers against its oracle.
type closedSpec struct {
	passElems int
	ingest    bool // the real stack has the concurrent ingest frontend
	strict    bool
	// pass runs one pass of passElems elements from seed; with setupOnly it
	// returns once the first element is accepted.
	pass   func(c *closedRun, seed uint64, n int, setupOnly bool) pass
	ladder ladderSpec
}

// beginPass marks where a pass's samples start and grows the sample
// slices ahead of it, so their growth during the pass does not count as
// tracker heap.
func (c *closedRun) beginPass(n int) {
	c.qMarks = append(c.qMarks, len(c.queries))
	c.oMarks = append(c.oMarks, len(c.observes))
	c.observes = slices.Grow(c.observes, n/sampleEvery+1)
	c.queries = slices.Grow(c.queries, n/checkEvery+1)
}

// sampleObserve records one timed Observe that began at t (clock) and s0
// (tracer clock).
func (c *closedRun) sampleObserve(t time.Time, s0 int64) {
	c.observes = append(c.observes, us(time.Since(t)))
	c.tr.add("disttrack.observe", 0, 0, s0)
}

// check scores one checkpoint answer.
func (c *closedRun) check(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.misses++
		if c.strict && c.misses <= 5 {
			c.e.violate(format, args...)
		}
	}
}

// fail counts a failed operation.
func (c *closedRun) fail(err error, what string) {
	if err != nil {
		c.e.failed++
		c.e.violate("%s: %v", what, err)
	}
}

// liveHeap returns the live heap after full collections. The second
// collection frees what the first only made finalizable (closed sockets
// and files).
func liveHeap() int64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func memstats() goruntime.MemStats {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms
}

// account fills the pass's allocation and GC figures from two readings.
func (p *pass) account(a, b goruntime.MemStats) {
	p.alloc = b.TotalAlloc - a.TotalAlloc
	p.gcs = b.NumGC - a.NumGC
	p.pause = time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

// runClosed runs a closed-loop workload: passes until the run's time is
// spent (end-to-end), or one untraced, one traced and one untraced pass on
// the same input followed by the layer ladder (traced).
func runClosed(e *env, s closedSpec) {
	c := &closedRun{e: e, strict: s.strict}
	if e.trace {
		traceClosed(c, s)
		return
	}
	var passes []pass
	var setups []float64
	start := time.Now()
	budget := time.Duration(e.seconds * float64(time.Second))
	for i := 0; ; i++ {
		c.beginPass(s.passElems)
		p := s.pass(c, mix(e.seed, uint64(i)), s.passElems, false)
		passes = append(passes, p)
		setups = append(setups, p.setup.Seconds())
		last := time.Since(start) / time.Duration(i+1)
		if len(passes) >= minPasses && time.Since(start)+last > budget {
			break
		}
	}
	for i := 0; len(setups) < minSetups; i++ {
		p := s.pass(c, mix(e.seed, uint64(1000+i)), s.passElems, true)
		setups = append(setups, p.setup.Seconds())
	}
	// Rates and per-element costs aggregate over every pass: the total work
	// over the total time. A median of a few passes would flip between the
	// modes of a bimodal workload (see README.md, freq-det-wal).
	var elems, words, msgs, alloc int64
	var ingest time.Duration
	var rates, heaps, passMsgs []float64
	for _, p := range passes {
		elems += p.elems
		words += p.m.Words
		msgs += p.m.Messages
		alloc += int64(p.alloc)
		ingest += p.ingest
		rates = append(rates, p.rate())
		heaps = append(heaps, float64(p.heap)/(1<<20))
		passMsgs = append(passMsgs, perK(p.m.Messages, p.elems))
	}
	e.set("setup_s", median(setups))
	e.set("elems_per_s", per(float64(elems), ingest.Seconds()))
	e.set("words_per_kelem", perK(words, elems))
	e.set("msgs_per_kelem", perK(msgs, elems))
	e.set("alloc_bytes_per_elem", per(float64(alloc), float64(elems)))
	e.set("heap_inuse_mb", median(heaps))
	c.report()
	e.detail("passes", len(passes))
	e.detail("pass_elems", s.passElems)
	e.detail("setup_s", setups)
	e.detail("pass_elems_per_s", rates)
	e.detail("pass_heap_mb", heaps)
	e.detail("pass_msgs_per_kelem", passMsgs)
}

// report sets the sample-based metrics and applies the accuracy gate.
func (c *closedRun) report() {
	e := c.e
	_, qTail, qWins := windowed(splitAt(c.queries, c.qMarks))
	_, oTail, oWins := windowed(splitAt(c.observes, c.oMarks))
	q := summarize(c.queries, 0.99)
	o := summarize(c.observes, 0.99)
	e.set("latency.query_p50_us", q.P50)
	e.set("latency.query_tail_us", qTail)
	e.set("latency.observe_p50_us", o.P50)
	e.set("latency.observe_tail_us", oTail)
	e.detail("query_us_per_pass", qWins)
	e.detail("observe_us_per_pass", oWins)
	e.set("eps_ok_frac", 1-per(float64(c.misses), float64(c.checks)))
	e.set("ok_frac", 1-per(float64(e.failed), float64(e.attempted)))
	e.detail("query_us", q)
	e.detail("observe_us", o)
	e.detail("checks", c.checks)
	e.detail("misses", c.misses)
	if c.checks == 0 {
		e.violate("no checkpoint was checked")
	} else if !c.strict && float64(c.misses) > missBudget*float64(c.checks) {
		e.violate("%d of %d checkpoint answers outside ε·n (budget %.0f%%)", c.misses, c.checks, 100*missBudget)
	}
}

// traceClosed makes the traced run of a closed-loop workload.
func traceClosed(c *closedRun, s closedSpec) {
	e := c.e
	seed := mix(e.seed, 0)
	c.beginPass(s.passElems)
	u1 := s.pass(c, seed, s.passElems, false)
	c.tr = newTracer()
	c.beginPass(s.passElems)
	t := s.pass(c, seed, s.passElems, false)
	spans := c.tr.take()
	c.tr = nil
	c.beginPass(s.passElems)
	u2 := s.pass(c, seed, s.passElems, false)
	e.set("trace.overhead_frac", per((u1.rate()+u2.rate())/2, t.rate())-1)
	e.detail("untraced_elems_per_s", []float64{u1.rate(), u2.rate()})
	e.detail("traced_elems_per_s", t.rate())
	if err := writeSpans(spanPath(e), spans); err != nil {
		e.detail("span_write_error", err.Error())
	}

	m := t.m
	setStackMetrics(e, m, t.gcs, t.pause)
	if s.ingest {
		obs := layerTotal(spans, "disttrack.observe")
		n := len(layerSamples(spans, nil, "disttrack.observe", false))
		e.set("ingest.observe_ns_per_elem", per(float64(obs.Nanoseconds()), float64(n)))
		e.set("ingest.flush_ms_p99", summarize(layerSamples(spans, nil, "disttrack.flush", false), 0.99).Tail/1e3)
		e.set("ingest.query_wait_us_p99", summarize(layerSamples(spans, nil, "disttrack.query", false), 0.99).Tail)
		e.set("ingest.dropped", float64(m.Dropped))
	}
	if t.store != nil {
		t.store.report(e, spans, t)
	}
	runLadder(e, s.ladder, seed)
	c.report()
}

// setStackMetrics sets the per-layer figures a traced run reads off the
// real stack's ledger and the Go runtime.
func setStackMetrics(e *env, m disttrack.Metrics, gcs uint32, pause time.Duration) {
	e.set("proto.site_words_max", float64(m.MaxSiteSpace))
	e.set("proto.coord_words_max", float64(m.MaxCoordSpace))
	e.set("runtime.msgs_up_per_kelem", perK(m.MessagesUp, m.Arrivals))
	e.set("runtime.msgs_down_per_kelem", perK(m.MessagesDown, m.Arrivals))
	e.set("runtime.broadcasts_per_kelem", perK(m.Broadcasts, m.Arrivals))
	if m.Depth > 0 {
		e.set("tree.leaf_msgs_per_kelem", perK(m.LevelMessages[0], m.Arrivals))
		e.set("tree.root_msgs_per_kelem", perK(m.LevelMessages[1], m.Arrivals))
	}
	e.set("gc.cycles", float64(gcs))
	e.set("gc.pause_ms", ms(pause))
}

func spanPath(e *env) string {
	return fmt.Sprintf("%s/%s-seed%d-spans.jsonl", e.dir, e.name, e.seed)
}

// mix derives the seed of pass i from the run's seed (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fenwick counts values in [0, n) and answers prefix counts exactly: the
// rank oracle over a bounded value domain.
type fenwick []int64

func newFenwick(n int) fenwick { return make(fenwick, n+1) }

func (f fenwick) add(v int) {
	for i := v + 1; i < len(f); i += i & -i {
		f[i]++
	}
}

// atMost returns the number of values <= v (0 for v < 0).
func (f fenwick) atMost(v int) int64 {
	if v >= len(f)-1 {
		v = len(f) - 2
	}
	var s int64
	for i := v + 1; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

// below returns the exact rank of x: the number of values < x.
func (f fenwick) below(x float64) int64 { return f.atMost(int(math.Ceil(x)) - 1) }

// atMostX returns the number of values <= x.
func (f fenwick) atMostX(x float64) int64 { return f.atMost(int(math.Floor(x))) }

// hotCounts brackets the exact counts of the hottest items for a reader
// running beside the producer: started counts an element before its
// Observe call, done after it returns; total counts every element started.
type hotCounts struct {
	started, done [hotItems]atomic.Int64
	total         atomic.Int64
}

const hotItems = 16
