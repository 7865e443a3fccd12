package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"disttrack"
	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/ingest"
	"disttrack/internal/netsim"
	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/sim"
)

// The layer ladder replays one workload's generated input on stacks the
// benchmark mounts itself from each layer's exported constructor, bottom
// up, so each layer's cost is its rung's time minus the rung below. The
// bottom rung runs the protocol on the sequential simulator with every
// proto.Site and proto.Coordinator call timed, which separates protocol
// time from transport time.

// elem is one ladder input: count identical arrivals at site.
type elem struct {
	site  int
	item  int64
	value float64
	count int64
}

// stack is one mounted rung.
type stack struct {
	arrive func(e elem)
	// finish drains the stack to quiescence and returns the words sent.
	finish func() (int64, error)
	close  func() error
}

// rung names a ladder step and mounts it for a seed.
type rung struct {
	name  string
	mount func(r *ladderRun, seed uint64) (stack, error)
}

// ladderSpec is a workload's ladder: its input and its rungs, bottom up.
type ladderSpec struct {
	elems int // elements replayed on every rung
	input func(seed uint64) func() elem
	rungs []rung
}

// ladderRun holds what the rungs of one ladder share.
type ladderRun struct {
	e     *env
	times protoTimes
}

type rungResult struct {
	Name          string `json:"name"`
	elems         float64
	NsPerElem     float64 `json:"ns_per_elem"`
	AllocsPerElem float64 `json:"allocs_per_elem"`
	WordsPerElem  float64 `json:"words_per_elem"`
	DeltaNs       float64 `json:"delta_ns_per_elem"`
}

// ladderRounds is how many times each rung is measured. Rounds rotate the
// rung order and each rung keeps its fastest round: on a shared host a
// burst of interference slows one round of one rung, and a single round
// per rung would turn it into a false layer cost.
const ladderRounds = 5

// runLadder measures every rung of spec on the same input and sets the
// ladder and layer self-time metrics. The proto rung's time is the
// protocol's own: the timed Site and Coordinator calls, less the timing
// wrapper's calibrated cost per call (clamped at zero where the calls are
// too cheap to resolve), so the rung above it reads as its transport's
// self time.
func runLadder(e *env, spec ladderSpec, seed uint64) {
	r := &ladderRun{e: e}
	cal := float64(timerCost())
	best := map[string]rungResult{}
	var arrive, receive float64 // the proto rung's best round
	var rounds [][]rungResult
	for round := 0; round < ladderRounds; round++ {
		var got []rungResult
		for i := range spec.rungs {
			rg := spec.rungs[(i+round)%len(spec.rungs)]
			r.times = protoTimes{}
			rr, err := r.measure(rg, spec, seed)
			if err != nil {
				e.failed++
				e.violate("ladder rung %s: %v", rg.name, err)
				continue
			}
			if rg.name == "proto" {
				t := r.times
				a := max(0, float64(t.arriveNs)-cal*float64(t.arrives)) / rr.elems
				rc := per(max(0, float64(t.receiveNs)-cal*float64(t.receives)), float64(t.receives))
				rr.NsPerElem = a + rc*float64(t.receives)/rr.elems
				if b, ok := best["proto"]; !ok || rr.NsPerElem < b.NsPerElem {
					arrive, receive = a, rc
				}
			}
			got = append(got, rr)
			if b, ok := best[rg.name]; !ok || rr.NsPerElem < b.NsPerElem {
				best[rg.name] = rr
			}
		}
		rounds = append(rounds, got)
	}
	e.detail("ladder_rounds", rounds)
	e.detail("timer_cost_ns", cal)
	e.set("proto.arrive_ns_per_elem", arrive)
	e.set("proto.receive_ns_per_msg", receive)
	e.set("proto.allocs_per_elem", best["proto"].AllocsPerElem)
	var below *rungResult
	for _, rg := range spec.rungs {
		rr, ok := best[rg.name]
		if !ok {
			continue
		}
		if below != nil {
			rr.DeltaNs = rr.NsPerElem - below.NsPerElem
		}
		best[rg.name], below = rr, &rr
		e.set("ladder."+rg.name+".ns_per_elem", rr.NsPerElem)
		e.set("ladder."+rg.name+".allocs_per_elem", rr.AllocsPerElem)
		e.set("ladder."+rg.name+".words_per_elem", rr.WordsPerElem)
		e.set("ladder."+rg.name+".delta_ns_per_elem", rr.DeltaNs)
	}
	if s, ok := best["sim"]; ok {
		e.set("sim.self_ns_per_elem", s.DeltaNs)
	}
	if s, ok := best["runtime"]; ok {
		e.set("runtime.self_ns_per_elem", s.DeltaNs)
		if t, ok := best["tcp"]; ok {
			e.set("tcp.self_ns_per_elem", t.NsPerElem-s.NsPerElem)
		}
		if t, ok := best["tree"]; ok {
			e.set("tree.self_ns_per_elem", t.NsPerElem-s.NsPerElem)
			e.set("tree.allocs_per_elem", t.AllocsPerElem)
		}
	}
	if d, ok := best["disttrack"]; ok {
		e.set("disttrack.self_ns_per_elem", d.DeltaNs)
	}
}

// measure mounts one rung, replays the input on it, and times the replay
// (mounting and closing are not timed).
func (r *ladderRun) measure(rg rung, spec ladderSpec, seed uint64) (rungResult, error) {
	st, err := rg.mount(r, seed)
	if err != nil {
		return rungResult{}, err
	}
	next := spec.input(seed)
	goruntime.GC()
	m0 := memstats()
	t0 := time.Now()
	var fed int64
	for fed < int64(spec.elems) {
		x := next()
		st.arrive(x)
		fed += x.count
	}
	words, err := st.finish()
	el := time.Since(t0)
	m1 := memstats()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rungResult{}, err
	}
	n := float64(fed)
	return rungResult{Name: rg.name, elems: n, NsPerElem: float64(el.Nanoseconds()) / n,
		AllocsPerElem: float64(m1.Mallocs-m0.Mallocs) / n, WordsPerElem: float64(words) / n}, nil
}

// onTransport adapts a runtime.Transport into a rung stack.
func onTransport(t runtime.Transport, after func() error) stack {
	eng := runtime.New(t)
	return stack{
		arrive: func(x elem) {
			if x.count == 1 {
				t.Arrive(x.site, x.item, x.value)
			} else {
				t.ArriveBatch(x.site, x.item, x.value, x.count)
			}
		},
		finish: func() (int64, error) { return eng.Metrics().Words(), nil },
		close: func() error {
			t.Close()
			if after != nil {
				return after()
			}
			return nil
		},
	}
}

// overIngest puts the concurrent ingest frontend in front of a transport
// rung, fed by one producer.
func overIngest(st stack, t runtime.Transport, k int) stack {
	eng := runtime.New(t)
	fe := ingest.New(eng, k, ingest.Options{})
	return stack{
		arrive: func(x elem) { fe.ObserveBatch(x.site, x.item, x.value, x.count) },
		finish: func() (int64, error) {
			if err := fe.Flush(); err != nil {
				return 0, err
			}
			var w int64
			fe.Query(func() { w = eng.Metrics().Words() })
			return w, nil
		},
		close: func() error {
			err := fe.Close()
			if cerr := st.close(); err == nil {
				err = cerr
			}
			return err
		},
	}
}

// protoTimes accumulates the timed protocol calls of the proto rung. The
// sequential simulator makes them from one goroutine.
type protoTimes struct {
	arriveNs, receiveNs int64
	arrives, receives   int64
}

type timedSite struct {
	proto.Site
	t *protoTimes
}

func (s timedSite) Arrive(item int64, value float64, out func(proto.Message)) {
	t0 := time.Now()
	s.Site.Arrive(item, value, out)
	s.t.arriveNs += int64(time.Since(t0))
	s.t.arrives++
}

// ArriveBatch keeps the simulator's batch path: a run of identical
// arrivals is one timed call, as it is one protocol call on the real stack.
func (s timedSite) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	t0 := time.Now()
	n := proto.ArriveChunk(s.Site, item, value, count, out)
	s.t.arriveNs += int64(time.Since(t0))
	s.t.arrives++
	return n
}

func (s timedSite) Receive(m proto.Message, out func(proto.Message)) {
	t0 := time.Now()
	s.Site.Receive(m, out)
	s.t.receiveNs += int64(time.Since(t0))
	s.t.receives++
}

type timedCoord struct {
	proto.Coordinator
	t *protoTimes
}

func (c timedCoord) Receive(from int, m proto.Message, send func(int, proto.Message), bcast func(proto.Message)) {
	t0 := time.Now()
	c.Coordinator.Receive(from, m, send, bcast)
	c.t.receiveNs += int64(time.Since(t0))
	c.t.receives++
}

// timed wraps every site and the coordinator of p. The wrappers hide the
// coordinator's optional snapshot and aggregator capabilities, which the
// simulator does not use.
func timed(p proto.Protocol, t *protoTimes) proto.Protocol {
	out := proto.Protocol{Coord: timedCoord{p.Coord, t}, Sites: make([]proto.Site, len(p.Sites))}
	for i, s := range p.Sites {
		out.Sites[i] = timedSite{s, t}
	}
	return out
}

type nopSite struct{}

func (nopSite) Arrive(int64, float64, func(proto.Message)) {}
func (nopSite) Receive(proto.Message, func(proto.Message)) {}
func (nopSite) SpaceWords() int                            { return 0 }

// timerCost returns the per-call cost the timing wrapper adds, measured on
// a site that does nothing; the proto metrics subtract it.
func timerCost() int64 {
	var t protoTimes
	s := timedSite{nopSite{}, &t}
	out := func(proto.Message) {}
	const n = 200_000
	for i := 0; i < n; i++ {
		s.Arrive(0, 0, out)
	}
	return t.arriveNs / n
}

// protoRung is the bottom rung: p with timed calls on the sequential
// simulator.
func protoRung(p func(seed uint64) proto.Protocol) rung {
	return rung{"proto", func(r *ladderRun, seed uint64) (stack, error) {
		return onTransport(sim.New(timed(p(seed), &r.times)), nil), nil
	}}
}

func simRung(p func(seed uint64) proto.Protocol) rung {
	return rung{"sim", func(r *ladderRun, seed uint64) (stack, error) {
		return onTransport(sim.New(p(seed)), nil), nil
	}}
}

func runtimeRung(p func(seed uint64) proto.Protocol) rung {
	return rung{"runtime", func(r *ladderRun, seed uint64) (stack, error) {
		return onTransport(netsim.Start(p(seed)), nil), nil
	}}
}

func tcpRung(p func(seed uint64) proto.Protocol) rung {
	return rung{"tcp", func(r *ladderRun, seed uint64) (stack, error) {
		c, err := tcp.StartLoopback(p(seed))
		if err != nil {
			return stack{}, err
		}
		return onTransport(c, nil), nil
	}}
}

// persistTCP mounts p on loopback TCP with a write-ahead logger over a
// disk store in a fresh temp dir hooked into the fabric's
// coordinator-delivery path, as Options.Persist does. after seals and
// closes the store once the transport is closed.
func persistTCP(r *ladderRun, pr proto.Protocol) (t runtime.Transport, after func() error, err error) {
	dir, err := os.MkdirTemp(r.e.tmp, "ladder-wal-")
	if err != nil {
		return nil, nil, err
	}
	store, err := persist.OpenDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	c, err := tcp.StartLoopback(pr)
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	lg := persist.NewLogger(store, pr.Coord, 0, nil)
	// The hook runs on the fabric's coordinator goroutine; after reads
	// logErr once closing the fabric has joined that goroutine.
	var logErr error
	c.Fabric.SetCoordLog(func(from int, m proto.Message) {
		if err := lg.Log(from, m); err != nil && logErr == nil {
			logErr = err
		}
	})
	return c, func() error {
		defer os.RemoveAll(dir)
		err := lg.Snapshot()
		if err == nil {
			err = lg.Sync()
		}
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = logErr
		}
		return err
	}, nil
}

// ---- per-workload ladders ----

func rankProto(seed uint64) proto.Protocol {
	p, _ := rank.NewProtocol(rank.Config{K: rankK, Eps: eps}, seed)
	return p
}

func rankElems(seed uint64) func() elem {
	next := rankInput(seed)
	return func() elem { s, v := next(); return elem{site: s, value: v, count: 1} }
}

var rankLadder = ladderSpec{elems: 150_000, input: rankElems, rungs: []rung{
	protoRung(rankProto),
	simRung(rankProto),
	{"disttrack", func(r *ladderRun, seed uint64) (stack, error) {
		tr := disttrack.NewRankTracker(rankOpts(seed))
		return facadeStack(func(x elem) { tr.Observe(x.site, x.value) }, tr.Flush,
			func() int64 { return tr.Metrics().Words }, tr.Close), nil
	}},
}}

// facadeStack assembles a rung stack from a tracker's methods.
func facadeStack(arrive func(elem), flush func() error, words func() int64, close func() error) stack {
	return stack{arrive: arrive, close: close, finish: func() (int64, error) {
		if err := flush(); err != nil {
			return 0, err
		}
		return words(), nil
	}}
}

func freqProto(uint64) proto.Protocol {
	p, _ := freq.NewDetProtocol(freqK, eps)
	return p
}

func freqElems(seed uint64) func() elem {
	next := freqInput(seed)
	return func() elem { s, it := next(); return elem{site: s, item: it, count: 1} }
}

var freqLadder = ladderSpec{elems: 25_000, input: freqElems, rungs: []rung{
	protoRung(freqProto),
	runtimeRung(freqProto),
	tcpRung(freqProto),
	{"persist", func(r *ladderRun, seed uint64) (stack, error) {
		t, after, err := persistTCP(r, freqProto(seed))
		if err != nil {
			return stack{}, err
		}
		return onTransport(t, after), nil
	}},
	{"ingest", func(r *ladderRun, seed uint64) (stack, error) {
		t, after, err := persistTCP(r, freqProto(seed))
		if err != nil {
			return stack{}, err
		}
		return overIngest(onTransport(t, after), t, freqK), nil
	}},
	{"disttrack", func(r *ladderRun, seed uint64) (stack, error) {
		dir, err := os.MkdirTemp(r.e.tmp, "facade-wal-")
		if err != nil {
			return stack{}, err
		}
		store, err := disttrack.OpenDiskStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return stack{}, err
		}
		tr := disttrack.NewFrequencyTracker(freqOpts(seed, store))
		return facadeStack(func(x elem) { tr.Observe(x.site, x.item) }, tr.Flush,
			func() int64 { return tr.Metrics().Words },
			func() error {
				defer os.RemoveAll(dir)
				err := tr.Close()
				if cerr := store.Close(); err == nil {
					err = cerr
				}
				return err
			}), nil
	}},
}}

func countProto(seed uint64) proto.Protocol {
	p, _ := count.NewProtocol(count.Config{K: httpK, Eps: eps}, seed)
	return p
}

// httpElems replays count-http's observe bodies: 1–100 elements at a
// uniform site.
func httpElems(seed uint64) func() elem {
	rng := newRNG(seed)
	return func() elem { return elem{site: rng.IntN(httpK), count: 1 + rng.Int64N(100)} }
}

var httpLadder = ladderSpec{elems: 2_000_000, input: httpElems, rungs: []rung{
	protoRung(countProto),
	runtimeRung(countProto),
	{"ingest", func(r *ladderRun, seed uint64) (stack, error) {
		c := netsim.Start(countProto(seed))
		return overIngest(onTransport(c, nil), c, httpK), nil
	}},
	{"disttrack", func(r *ladderRun, seed uint64) (stack, error) {
		tr := disttrack.NewCountTracker(httpOpts(seed))
		return facadeStack(func(x elem) { tr.ObserveBatch(x.site, int(x.count)) }, tr.Flush,
			func() int64 { return tr.Metrics().Words }, tr.Close), nil
	}},
}}

func flatCountProto(seed uint64) proto.Protocol {
	p, _ := count.NewProtocol(count.Config{K: treeK, Eps: eps}, seed)
	return p
}

func treeElems(seed uint64) func() elem {
	next := siteInput(seed, treeK)
	return func() elem { return elem{site: next(), count: 1} }
}

var treeLadder = ladderSpec{elems: 400_000, input: treeElems, rungs: []rung{
	protoRung(flatCountProto),
	runtimeRung(flatCountProto),
	{"tree", func(r *ladderRun, seed uint64) (stack, error) {
		tp, _ := count.NewTreeProtocol(count.Config{K: treeK, Eps: eps}, treeFanout, seed)
		t, err := runtime.NewTree(tp, func(p proto.Protocol) (runtime.Transport, error) { return netsim.Start(p), nil })
		if err != nil {
			return stack{}, fmt.Errorf("mounting tree: %w", err)
		}
		return onTransport(t, nil), nil
	}},
	{"disttrack", func(r *ladderRun, seed uint64) (stack, error) {
		tr := disttrack.NewCountTracker(treeOpts(seed))
		return facadeStack(func(x elem) { tr.Observe(x.site) }, tr.Flush,
			func() int64 { return tr.Metrics().Words }, tr.Close), nil
	}},
}}
