package disttrack

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"strings"
	"testing"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	pinK      = 10
	pinFanout = 4 // three groups of 4, 4 and 2 leaves: the last one smaller
	pinN      = 4000
	pinSeed   = 42
)

// pinnedDigest runs one tracker on a fixed workload over the sequential
// transport and folds its per-link message signatures, message counts,
// query answers and Metrics into one hash.
func pinnedDigest(problem string, o Options) uint64 {
	links := o.K
	if o.Topology == TopologyTree {
		links += (o.K + o.Fanout - 1) / o.Fanout
	}
	tap := newDigestTap(links)
	var answers []float64
	var m Metrics
	switch problem {
	case "count":
		tr := NewCountTracker(o)
		tr.eng.SetTap(tap)
		for i := 0; i < pinN; i++ {
			tr.Observe(i % o.K)
			if i%500 == 0 {
				answers = append(answers, tr.Estimate())
			}
		}
		answers = append(answers, tr.Estimate())
		m = tr.Metrics()
		tr.Close()
	case "freq":
		tr := NewFrequencyTracker(o)
		tr.eng.SetTap(tap)
		items := workload.ZipfItems(200, 1.2, stats.New(99))
		for i := 0; i < pinN; i++ {
			tr.Observe(i%o.K, items(i))
			if i%500 == 0 {
				answers = append(answers, tr.Estimate(0))
			}
		}
		for _, j := range []int64{0, 1, 7, 50, 199} {
			answers = append(answers, tr.Estimate(j))
		}
		m = tr.Metrics()
		tr.Close()
	case "rank":
		tr := NewRankTracker(o)
		tr.eng.SetTap(tap)
		values := workload.PermValues(pinN, stats.New(17))
		for i := 0; i < pinN; i++ {
			tr.Observe(i%o.K, values(i))
			if i%500 == 0 {
				answers = append(answers, tr.Rank(pinN/2))
			}
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			answers = append(answers, tr.Rank(q*pinN), tr.Quantile(q, 0, pinN))
		}
		m = tr.Metrics()
		tr.Close()
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	sig, ns := tap.signature()
	for i := range sig {
		put(sig[i])
		put(uint64(ns[i]))
	}
	for _, a := range answers {
		put(math.Float64bits(a))
	}
	fmt.Fprintf(h, "%+v", m)
	return h.Sum64()
}

// TestProtocolDigestsPinned pins every (problem, algorithm, robust) cell at
// a fixed seed on the sequential transport — flat, as a two-level tree
// where the cell re-aggregates, and with Copies=3 where it boosts. The
// values were recorded before the protocol catalog replaced the
// per-tracker constructors. Any change to an RNG split order (per-site
// splits, the robust noise split, the median copies' splits, the boosted
// copies' seeds, the tree's group-then-root order) or to which machine a
// cell builds changes them.
func TestProtocolDigestsPinned(t *testing.T) {
	algs := map[string]Algorithm{
		"randomized": AlgorithmRandomized, "deterministic": AlgorithmDeterministic, "sampling": AlgorithmSampling,
	}
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"count/randomized", 0xff0988e1b96db04e},
		{"count/deterministic", 0x7ca31852d7acc570},
		{"count/sampling", 0x1917f33df599424b},
		{"count/randomized/robust", 0x26b5b4cefd19357f},
		{"freq/randomized", 0x669f16e2b8017365},
		{"freq/deterministic", 0x75a6dfaf73217001},
		{"freq/sampling", 0x7e61294618a33a11},
		{"rank/randomized", 0x54e12e7d17d88c60},
		{"rank/deterministic", 0xc912560454e5c4af},
		{"rank/sampling", 0x1d6c0f0609a0e54f},
		{"count/randomized/tree", 0xde32eb1b762676f4},
		{"count/deterministic/tree", 0x74dad3fe2a9a6c1},
		{"count/sampling/tree", 0x43ab5044c1cd5ec},
		{"freq/randomized/tree", 0x26a67100969347d0},
		{"freq/sampling/tree", 0x2da3d79607743d55},
		{"rank/randomized/tree", 0xa2067978cf621afb},
		{"rank/sampling/tree", 0xb96d8635eea0ab},
		{"count/randomized/copies3", 0xc5548a50e0525442},
		{"freq/randomized/copies3", 0xcb79bd1d891f8b14},
		{"rank/randomized/copies3", 0xe9987bc326dbcd1e},
	} {
		parts := append(strings.Split(tc.name, "/"), "")
		problem, alg, mode := parts[0], parts[1], parts[2]
		o := Options{K: pinK, Epsilon: 0.1, Seed: pinSeed, Algorithm: algs[alg]}
		switch mode {
		case "robust":
			// At the shared K and ε the robust schedule's tightened
			// sampling ε keeps p at 1, so neither site stream is drawn.
			o.Robust, o.K, o.Epsilon = true, 64, 0.5
		case "tree":
			o.Topology, o.Fanout = TopologyTree, pinFanout
		case "copies3":
			o.Copies = 3
		}
		if got := pinnedDigest(problem, o); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestDetRankRestartKeepsSnapshotPool pins that a deterministic rank
// coordinator rebuilt by CrashRestartCoordinator shares the surviving
// sites' snapshot pool. Without it the rebuilt coordinator drops every
// superseded snapshot's tuple storage, the sites' pool never refills, and
// each later site snapshot allocates afresh: the same arrivals after a
// restart then allocate measurably more than without one.
func TestDetRankRestartKeepsSnapshotPool(t *testing.T) {
	const k, warm, n = 8, 50000, 200000
	values := workload.PermValues(warm+n, stats.New(5))
	allocated := func(restart bool) uint64 {
		tr := NewRankTracker(Options{K: k, Epsilon: 0.05, Algorithm: AlgorithmDeterministic,
			Persist: NewMemStore()})
		defer tr.Close()
		for i := 0; i < warm; i++ {
			tr.Observe(i%k, values(i))
		}
		if restart {
			if err := tr.CrashRestartCoordinator(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		for i := warm; i < warm+n; i++ {
			tr.Observe(i%k, values(i))
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, restarted := allocated(false), allocated(true)
	if float64(restarted) > 1.05*float64(plain) {
		t.Fatalf("after a coordinator restart the next %d arrivals allocated %d bytes, %.2f× the %d of an uninterrupted run; want ≤ 1.05×",
			n, restarted, float64(restarted)/float64(plain), plain)
	}
}
