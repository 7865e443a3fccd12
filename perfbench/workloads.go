package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"disttrack"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909)) }

// ---- rank-seq ----

const (
	rankK      = 64
	rankDomain = 1 << 16
)

var rankSeq = workload{
	name: "rank-seq",
	why:  "randomized rank tracking on the sequential transport: the protocol does almost all the work, so it isolates proto and sim",
	params: map[string]any{"tracker": "rank", "algorithm": "randomized", "k": rankK, "epsilon": eps,
		"transport": "sequential", "values": "uniform integers in [0, 65536)", "sites": "uniform",
		"pass_elems": 1_000_000, "checkpoint": "Rank(x) and Quantile(0.5) every 10000 elements"},
	run: func(e *env) {
		runClosed(e, closedSpec{passElems: 1_000_000, pass: rankSeqPass, ladder: rankLadder})
	},
}

func rankOpts(seed uint64) disttrack.Options {
	return disttrack.Options{K: rankK, Epsilon: eps, Seed: seed}
}

// rankInput returns the rank-seq element stream of seed.
func rankInput(seed uint64) func() (int, float64) {
	rng := newRNG(seed)
	return func() (int, float64) {
		x := rng.Uint64()
		return int(x % rankK), float64((x >> 32) % rankDomain)
	}
}

func rankSeqPass(c *closedRun, seed uint64, n int, setupOnly bool) pass {
	var p pass
	next := rankInput(seed)
	qrng := newRNG(^seed)
	orc := newFenwick(rankDomain)
	base := liveHeap()
	t0 := time.Now()
	tr := disttrack.NewRankTracker(rankOpts(seed))
	site, v := next()
	tr.Observe(site, v)
	p.setup = time.Since(t0)
	orc.add(int(v))
	if setupOnly {
		c.fail(tr.Close(), "close")
		return p
	}
	ms0 := memstats()
	start := time.Now()
	var paused time.Duration
	queries := 0
	for i := 1; i < n; i++ {
		site, v := next()
		if i%sampleEvery == 0 {
			t, s0 := time.Now(), c.tr.now()
			tr.Observe(site, v)
			c.sampleObserve(t, s0)
		} else {
			tr.Observe(site, v)
		}
		orc.add(int(v))
		if (i+1)%checkEvery == 0 {
			q0 := time.Now()
			rankCheckpoint(c, tr, orc, qrng, int64(i+1))
			queries++
			paused += time.Since(q0)
		}
	}
	c.fail(tr.Flush(), "flush")
	p.ingest = time.Since(start) - paused
	p.account(ms0, memstats())
	p.elems = int64(n)
	p.m = tr.Metrics()
	p.heap = liveHeap() - base
	if p.m.Arrivals != int64(n) {
		c.e.violate("rank-seq: %d arrivals counted, %d observed", p.m.Arrivals, n)
	}
	c.fail(tr.Close(), "close")
	c.e.attempted += int64(n + queries)
	return p
}

// rankCheckpoint checks Rank at a random point and the median against the
// exact counts. The pair is one query sample: timing the two calls apart
// would mix a microsecond lookup with a millisecond bisection in one
// distribution, and put its median on the gap between them.
func rankCheckpoint(c *closedRun, tr *disttrack.RankTracker, orc fenwick, rng *rand.Rand, n int64) {
	tol := eps * float64(n)
	x := float64(rng.IntN(rankDomain)) + 0.5
	t, s0 := time.Now(), c.tr.now()
	est := tr.Rank(x)
	q := tr.Quantile(0.5, 0, rankDomain)
	c.queries = append(c.queries, us(time.Since(t)))
	c.tr.add("disttrack.query", 0, 0, s0)
	exact := orc.below(x)
	c.check(math.Abs(est-float64(exact)) <= tol, "rank(%g) = %.0f, exact %d, n=%d", x, est, exact, n)
	// The median's exact rank may be any count in [below(q), atMost(q)].
	half := 0.5 * float64(n)
	lo, hi := float64(orc.below(q)), float64(orc.atMostX(q))
	c.check(lo-tol <= half && half <= hi+tol, "quantile(0.5) = %g with exact rank [%.0f, %.0f], n=%d", q, lo, hi, n)
}

// ---- count-tree ----

const (
	treeK      = 1024
	treeFanout = 32
)

var countTree = workload{
	name: "count-tree",
	why:  "randomized count tracking over a two-level tree of 1024 sites: the only workload whose stack contains the tree layer",
	params: map[string]any{"tracker": "count", "algorithm": "randomized", "k": treeK, "fanout": treeFanout,
		"epsilon": eps, "transport": "goroutine", "topology": "tree", "sites": "uniform",
		"pass_elems": 2_000_000, "checkpoint": "Estimate against exact n every 10000 elements"},
	run: func(e *env) {
		runClosed(e, closedSpec{passElems: 2_000_000, pass: countTreePass, ladder: treeLadder})
	},
}

func treeOpts(seed uint64) disttrack.Options {
	return disttrack.Options{K: treeK, Epsilon: eps, Seed: seed, Transport: disttrack.TransportGoroutine,
		Topology: disttrack.TopologyTree, Fanout: treeFanout}
}

// siteInput returns a stream of uniform sites in [0, k).
func siteInput(seed uint64, k int) func() int {
	rng := newRNG(seed)
	return func() int { return rng.IntN(k) }
}

func countTreePass(c *closedRun, seed uint64, n int, setupOnly bool) pass {
	var p pass
	next := siteInput(seed, treeK)
	base := liveHeap()
	t0 := time.Now()
	tr := disttrack.NewCountTracker(treeOpts(seed))
	tr.Observe(next())
	p.setup = time.Since(t0)
	if setupOnly {
		c.fail(tr.Close(), "close")
		return p
	}
	ms0 := memstats()
	start := time.Now()
	var paused time.Duration
	queries := 0
	for i := 1; i < n; i++ {
		site := next()
		if i%sampleEvery == 0 {
			t, s0 := time.Now(), c.tr.now()
			tr.Observe(site)
			c.sampleObserve(t, s0)
		} else {
			tr.Observe(site)
		}
		if (i+1)%checkEvery == 0 {
			q0 := time.Now()
			s0 := c.tr.now()
			est := tr.Estimate()
			c.queries = append(c.queries, us(time.Since(q0)))
			c.tr.add("disttrack.query", 0, 0, s0)
			nn := float64(i + 1)
			c.check(math.Abs(est-nn) <= eps*nn, "count estimate %.0f, exact %.0f", est, nn)
			queries++
			paused += time.Since(q0)
		}
	}
	c.fail(tr.Flush(), "flush")
	p.ingest = time.Since(start) - paused
	p.account(ms0, memstats())
	p.elems = int64(n)
	p.m = tr.Metrics()
	p.heap = liveHeap() - base
	if p.m.Arrivals != int64(n) {
		c.e.violate("count-tree: %d arrivals counted, %d observed", p.m.Arrivals, n)
	}
	c.fail(tr.Close(), "close")
	c.e.attempted += int64(n + queries)
	return p
}

// ---- freq-det-wal ----

const (
	freqK     = 64
	zipfAlpha = 1.1
	zipfItems = 100_000
)

var freqDetWAL = workload{
	name: "freq-det-wal",
	why:  "deterministic frequency tracking over loopback TCP with concurrent ingest and a disk WAL: message-heavy, so runtime, tcp, ingest and persist carry the load",
	params: map[string]any{"tracker": "frequency", "algorithm": "deterministic", "k": freqK, "epsilon": eps,
		"transport": "tcp", "concurrent_ingest": true, "persist": "disk store in a temp dir",
		"items": "zipf alpha=1.1 over 100000 items", "sites": "uniform", "producers": 1,
		"reader": "Flush, then Estimate of the 16 hottest items, every 1 ms", "pass_elems": 150_000},
	run: func(e *env) {
		runClosed(e, closedSpec{passElems: 150_000, ingest: true, strict: true, pass: freqPass, ladder: freqLadder})
	},
}

// freqInput returns the freq-det-wal element stream of seed.
func freqInput(seed uint64) func() (int, int64) {
	rng := newRNG(seed)
	z := rand.NewZipf(rng, zipfAlpha, 1, zipfItems-1)
	return func() (int, int64) { return rng.IntN(freqK), int64(z.Uint64()) }
}

func freqOpts(seed uint64, store disttrack.PersistStore) disttrack.Options {
	return disttrack.Options{K: freqK, Epsilon: eps, Seed: seed, Algorithm: disttrack.AlgorithmDeterministic,
		Transport: disttrack.TransportTCP, ConcurrentIngest: true, Persist: store}
}

func freqPass(c *closedRun, seed uint64, n int, setupOnly bool) pass {
	var p pass
	next := freqInput(seed)
	var hot hotCounts
	dir, err := os.MkdirTemp(c.e.tmp, "wal-")
	if err != nil {
		c.fail(err, "temp dir")
		return p
	}
	defer os.RemoveAll(dir)
	rd := reader{queries: make([]float64, 0, 1<<14)}
	base := liveHeap()
	t0 := time.Now()
	store, err := disttrack.OpenDiskStore(dir)
	if err != nil {
		c.fail(err, "open store")
		return p
	}
	var ps disttrack.PersistStore = store
	if c.tr != nil {
		p.store = &timedStore{PersistStore: store, tr: c.tr}
		ps = p.store
	}
	tr := disttrack.NewFrequencyTracker(freqOpts(seed, ps))
	observe := func(site int, item int64) {
		if item < hotItems {
			hot.started[item].Add(1)
		}
		hot.total.Add(1)
		tr.Observe(site, item)
		if item < hotItems {
			hot.done[item].Add(1)
		}
	}
	observe(next())
	c.fail(tr.Flush(), "flush")
	p.setup = time.Since(t0)
	closeAll := func() {
		c.fail(tr.Close(), "close")
		c.fail(store.Close(), "store close")
	}
	if setupOnly {
		closeAll()
		return p
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(c.tr, tr, &hot, stop)
	}()
	ms0 := memstats()
	start := time.Now()
	for i := 1; i < n; i++ {
		site, item := next()
		if i%sampleEvery == 0 {
			t, s0 := time.Now(), c.tr.now()
			observe(site, item)
			c.sampleObserve(t, s0)
		} else {
			observe(site, item)
		}
	}
	c.fail(tr.Flush(), "flush")
	p.ingest = time.Since(start)
	close(stop)
	wg.Wait()
	p.account(ms0, memstats())
	c.queries = append(c.queries, rd.queries...)
	c.checks += rd.checks
	c.misses += rd.misses
	for _, v := range rd.bad {
		c.e.violate("%s", v)
	}
	p.elems = int64(n)
	p.m = tr.Metrics()
	if p.m.Arrivals != int64(n) || p.m.Dropped != 0 {
		c.e.violate("freq-det-wal: %d arrivals and %d dropped, %d observed", p.m.Arrivals, p.m.Dropped, n)
		c.e.failed += p.m.Dropped
	}
	// After the final Flush the counts are exact: every hot item's estimate
	// must be within ε·n.
	for j := 0; j < hotItems; j++ {
		est, exact := tr.Estimate(int64(j)), float64(hot.done[j].Load())
		c.check(math.Abs(est-exact) <= eps*float64(n), "final estimate of item %d = %.0f, exact %.0f", j, est, exact)
	}
	p.heap = liveHeap() - base
	closeAll()
	c.e.attempted += int64(n+len(rd.queries)+rd.flushes) + hotItems
	return p
}

// reader is freq-det-wal's query goroutine: every millisecond it flushes
// and asks for the hottest items, bracketing each answer between the
// producer's counts before the flush and after the answer.
type reader struct {
	queries                 []float64
	flushes, checks, misses int
	bad                     []string
}

func (r *reader) run(trc *tracer, tr *disttrack.FrequencyTracker, hot *hotCounts, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var lo [hotItems]int64
		for j := range lo {
			lo[j] = hot.done[j].Load()
		}
		s0 := trc.now()
		if err := tr.Flush(); err != nil {
			r.bad = append(r.bad, "reader flush: "+err.Error())
			return
		}
		r.flushes++
		trc.add("disttrack.flush", 0, 0, s0)
		for j := 0; j < hotItems; j++ {
			t, s0 := time.Now(), trc.now()
			est := tr.Estimate(int64(j))
			r.queries = append(r.queries, us(time.Since(t)))
			trc.add("disttrack.query", 0, 0, s0)
			hi, n := hot.started[j].Load(), hot.total.Load()
			r.checks++
			if tol := eps * float64(n); est < float64(lo[j])-tol || est > float64(hi)+tol {
				r.misses++
				if len(r.bad) < 5 {
					r.bad = append(r.bad, fmt.Sprintf("reader: estimate of item %d = %.0f outside [%d, %d] ± ε·%d", j, est, lo[j], hi, n))
				}
			}
		}
	}
}
