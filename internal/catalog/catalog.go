// Package catalog is the one place that builds a tracking protocol. Every
// supported (problem, algorithm, robust) cell is one entry of a table that
// holds the cell's site, coordinator and aggregator builders and its
// capabilities. On top of the table sit one flat assembler (with median
// boosting), one two-level tree assembler and one coordinator builder that
// serves fresh starts, crash-restarts and coordinators whose sites run in
// other processes. Every builder also returns the coordinator's query
// answers, so callers never type-switch on a coordinator.
package catalog

import (
	"fmt"
	"math"

	"disttrack/internal/boost"
	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/robust"
	"disttrack/internal/sample"
	"disttrack/internal/stats"
)

// Problem names a tracking problem.
type Problem string

// The tracking problems of the paper.
const (
	Count Problem = "count"
	Freq  Problem = "freq"
	Rank  Problem = "rank"
)

// Alg names an algorithm family.
type Alg string

// The algorithm families: the paper's randomized protocols, the
// deterministic baselines and continuous sampling.
const (
	Randomized    Alg = "randomized"
	Deterministic Alg = "deterministic"
	Sampling      Alg = "sampling"
)

// Spec selects a catalog cell and its parameters.
type Spec struct {
	Problem Problem
	Alg     Alg
	// Robust selects the adversarially robust variant (internal/robust).
	Robust bool
	// K is the number of sites, Eps the target relative error.
	K   int
	Eps float64
	// Rescale divides Eps inside the randomized protocols (0 = the
	// paper's 3).
	Rescale float64
	// Copies > 1 runs that many median-boosted copies where the cell
	// boosts; the other cells ignore it, as their guarantees already hold
	// at all instants.
	Copies int
	// Seed roots the sites' RNG streams in Flat and Tree, and the robust
	// coordinator's release-noise stream.
	Seed uint64
}

// Answers are a coordinator's query answers for its problem; the other
// problems' fields are nil. A rank coordinator also answers Count, as the
// rank of +∞.
type Answers struct {
	Count    func() float64
	Freq     func(item int64) float64
	Rank     func(x float64) float64
	Quantile func(q, lo, hi float64) float64
}

// entry is one catalog cell.
type entry struct {
	// site builds one site machine; next yields its RNG streams in the
	// order the machine draws them.
	site func(s *Spec, next func() *stats.RNG) proto.Site
	// coord builds the coordinator over the given site machines (nil when
	// they run in other processes) and binds its query answers.
	coord func(s *Spec, sites []proto.Site) (proto.Coordinator, Answers)
	// agg builds a tree group's aggregator and its answers for the group;
	// nil when the cell cannot run as a tree, for the reason noTree gives.
	agg    func(s *Spec) (proto.Aggregator, Answers)
	noTree string
	// wrap runs Copies > 1 as independent protocol copies under
	// boost.Wrap. The randomized count cell instead multiplexes its copies
	// inside its own machines (count.MedianSite, whose lockstep
	// ArriveBatch and CopyMsg wire tag logs depend on); the remaining
	// cells ignore Copies.
	wrap bool
	// fullEps runs both tree levels at the full ε instead of splitting it.
	fullEps bool
}

type key struct {
	problem Problem
	alg     Alg
	robust  bool
}

// The protocol packages' configs for the spec.
func (s Spec) count() count.Config   { return count.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale} }
func (s Spec) freq() freq.Config     { return freq.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale} }
func (s Spec) rank() rank.Config     { return rank.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale} }
func (s Spec) sample() sample.Config { return sample.Config{K: s.K, Eps: s.Eps} }
func (s Spec) robust() robust.Config {
	return robust.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale, Seed: s.Seed}
}

// sampling is the one sampling cell per problem: one sample answers count,
// frequency and rank queries alike, though each cell exposes only its own.
var sampling = entry{
	site: func(_ *Spec, next func() *stats.RNG) proto.Site { return sample.NewSite(next()) },
	coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
		c := sample.NewCoordinator(s.sample())
		return c, sampleAnswers(s.Problem, c)
	},
	agg: func(s *Spec) (proto.Aggregator, Answers) {
		a := sample.NewAgg(sample.NewCoordinator(s.sample()))
		return a, sampleAnswers(s.Problem, a.Coordinator)
	},
	fullEps: true,
}

// table holds every cell.
var table = map[key]*entry{
	{Count, Randomized, false}: {
		site: func(s *Spec, next func() *stats.RNG) proto.Site {
			if s.Copies > 1 {
				return count.NewMedianSite(s.count(), s.Copies, next())
			}
			return count.NewSite(s.count(), next())
		},
		coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
			if s.Copies > 1 {
				c := count.NewMedianCoordinator(s.count(), s.Copies)
				return c, Answers{Count: c.Estimate}
			}
			c := count.NewCoordinator(s.count())
			return c, Answers{Count: c.Estimate}
		},
		agg: func(s *Spec) (proto.Aggregator, Answers) {
			a := count.NewAgg(count.NewCoordinator(s.count()))
			return a, Answers{Count: a.Estimate}
		},
	},
	{Count, Deterministic, false}: {
		site: func(s *Spec, _ func() *stats.RNG) proto.Site { return count.NewDetSite(s.Eps) },
		coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
			c := count.NewDetCoordinator(s.K, s.Eps)
			return c, Answers{Count: c.Estimate}
		},
		// The reports merge by summation, so this baseline keeps its δ=0
		// guarantee through re-aggregation.
		agg: func(s *Spec) (proto.Aggregator, Answers) {
			a := count.NewDetAgg(count.NewDetCoordinator(s.K, s.Eps))
			return a, Answers{Count: a.Estimate}
		},
	},
	{Count, Sampling, false}: &sampling,
	{Count, Randomized, true}: {
		site: func(s *Spec, next func() *stats.RNG) proto.Site {
			rng := next()
			return robust.NewSite(s.robust(), rng, next())
		},
		coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
			c := robust.NewCoordinator(s.robust())
			return c, Answers{Count: c.Estimate}
		},
		noTree: "the robust release calibrates noise against direct site reports; aggregated virtual arrivals would double-count it",
	},
	{Freq, Randomized, false}: {
		site: func(s *Spec, next func() *stats.RNG) proto.Site { return freq.NewSite(s.freq(), next()) },
		coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
			c := freq.NewCoordinator(s.freq())
			return c, Answers{Freq: c.Estimate}
		},
		agg: func(s *Spec) (proto.Aggregator, Answers) {
			a := freq.NewAgg(freq.NewCoordinator(s.freq()))
			return a, Answers{Freq: a.Estimate}
		},
		wrap: true,
	},
	{Freq, Deterministic, false}: {
		site: func(s *Spec, _ func() *stats.RNG) proto.Site { return freq.NewDetSite(s.K, s.Eps) },
		coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
			c := freq.NewDetCoordinator(s.K)
			return c, Answers{Freq: c.Estimate}
		},
		noTree: "its SpaceSaving summaries have no merge path for re-aggregation",
	},
	{Freq, Sampling, false}: &sampling,
	{Rank, Randomized, false}: {
		site: func(s *Spec, next func() *stats.RNG) proto.Site { return rank.NewSite(s.rank(), next()) },
		coord: func(s *Spec, _ []proto.Site) (proto.Coordinator, Answers) {
			c := rank.NewCoordinator(s.rank())
			return c, rankAnswers(c.Rank, c.Quantile)
		},
		agg: func(s *Spec) (proto.Aggregator, Answers) {
			a := rank.NewAgg(rank.NewCoordinator(s.rank()))
			return a, rankAnswers(a.Rank, a.Quantile)
		},
		wrap: true,
	},
	{Rank, Deterministic, false}: {
		site: func(s *Spec, _ func() *stats.RNG) proto.Site { return rank.NewDetSite(s.K, s.Eps) },
		// Sharing the sites' snapshot pool also covers a coordinator
		// rebuilt over surviving sites.
		coord: func(s *Spec, sites []proto.Site) (proto.Coordinator, Answers) {
			c := rank.NewDetCoordinatorFor(s.K, sites)
			return c, rankAnswers(c.Rank, c.Quantile)
		},
		noTree: "its Greenwald-Khanna snapshots have no merge path for re-aggregation",
	},
	{Rank, Sampling, false}: &sampling,
}

// Supported reports whether the catalog has the spec's cell.
func (s Spec) Supported() bool { return table[key{s.Problem, s.Alg, s.Robust}] != nil }

func (s Spec) entry() *entry {
	e := table[key{s.Problem, s.Alg, s.Robust}]
	if e == nil {
		panic(fmt.Sprintf("catalog: no %s/%s protocol (robust=%t)", s.Problem, s.Alg, s.Robust))
	}
	return e
}

// NoTree returns why the cell cannot run as a two-level tree, or "" when
// it can.
func (s Spec) NoTree() string { return s.entry().noTree }

// levelEps is the error budget of each level of a two-level tree:
// proto.SplitEps(Eps, 2), so that the two levels compose to Eps. Sampling
// runs both levels at the full Eps: its error is driven by the retained
// sample's size, and the resampled feed keeps the root's sample uniform
// over the whole stream.
func (s Spec) levelEps() float64 {
	if s.entry().fullEps {
		return s.Eps
	}
	return proto.SplitEps(s.Eps, 2)
}

// Group is the spec of group g of a two-level tree with the given fanout:
// its GroupSize leaves at levelEps.
func (s Spec) Group(fanout, g int) Spec { return s.level(proto.GroupSize(s.K, fanout, g)) }

// Root is the spec of a two-level tree's root: one site per group, at
// levelEps.
func (s Spec) Root(fanout int) Spec { return s.level(proto.TreeGroups(s.K, fanout)) }

func (s Spec) level(k int) Spec {
	l := s
	l.K, l.Eps, l.Copies = k, s.levelEps(), 0
	return l
}

// Site builds one site machine. next yields its RNG streams in the order
// the machine draws them: a robust site draws two (sampling, then noise),
// a median-boosted count site one that it splits per copy, a deterministic
// site none.
func (s Spec) Site(next func() *stats.RNG) proto.Site { return s.entry().site(&s, next) }

// Coordinator builds a fresh coordinator over the given site machines and
// its query answers. sites are the machines of a protocol being assembled
// or of a tracker whose coordinator crashed (the coordinator reattaches
// whatever the sites share with it), or nil when the sites run in other
// processes.
func (s Spec) Coordinator(sites []proto.Site) (proto.Coordinator, Answers) {
	return s.coordinator(s.entry(), sites)
}

func (s Spec) coordinator(e *entry, sites []proto.Site) (proto.Coordinator, Answers) {
	if e.wrap && s.Copies > 1 {
		coords := make([]proto.Coordinator, s.Copies)
		as := make([]Answers, s.Copies)
		for i := range coords {
			c := s
			c.Copies = 1
			coords[i], as[i] = c.coordinator(e, nil)
		}
		return boost.WrapCoordinators(coords), medianOf(as)
	}
	return e.coord(&s, sites)
}

// Aggregator builds a tree group's aggregator (for a spec shaped by Group)
// and its answers for the group.
func (s Spec) Aggregator() (proto.Aggregator, Answers) {
	e := s.entry()
	if e.agg == nil {
		panic(fmt.Sprintf("catalog: %s/%s cannot run as a tree: %s", s.Problem, s.Alg, e.noTree))
	}
	return e.agg(&s)
}

// Flat assembles the paper's star: K sites whose RNG streams split in site
// order from stats.New(Seed). Copies > 1 on a boosting cell runs median
// copies, each wrapped copy seeded by the next stats.New(Seed).Uint64().
func (s Spec) Flat() (proto.Protocol, Answers) { return s.flat(s.entry()) }

func (s Spec) flat(e *entry) (proto.Protocol, Answers) {
	if e.wrap && s.Copies > 1 {
		root := stats.New(s.Seed)
		ps := make([]proto.Protocol, s.Copies)
		as := make([]Answers, s.Copies)
		for i := range ps {
			c := s
			c.Copies, c.Seed = 1, root.Uint64()
			ps[i], as[i] = c.flat(e)
		}
		return boost.Wrap(ps), medianOf(as)
	}
	sites := s.sites(e, stats.New(s.Seed).Split)
	coord, ans := s.coordinator(e, sites)
	return proto.Protocol{Coord: coord, Sites: sites}, ans
}

// Tree assembles a two-level tree over K leaves, fanout per group
// (proto.NewTree), every level at levelEps. The sites split their RNG
// streams from stats.New(Seed): the groups' sites in order, then the
// root's. The answers are the root's.
func (s Spec) Tree(fanout int) (proto.Tree, Answers) {
	e := s.entry()
	next := stats.New(s.Seed).Split
	var ans Answers
	tp := proto.NewTree(s.K, fanout, func(k int, root bool) proto.Protocol {
		l := s.level(k)
		sites := l.sites(e, next)
		if !root {
			agg, _ := e.agg(&l)
			return proto.Protocol{Coord: agg, Sites: sites}
		}
		var coord proto.Coordinator
		coord, ans = e.coord(&l, sites)
		return proto.Protocol{Coord: coord, Sites: sites}
	})
	return tp, ans
}

func (s Spec) sites(e *entry, next func() *stats.RNG) []proto.Site {
	sites := make([]proto.Site, s.K)
	for i := range sites {
		sites[i] = e.site(&s, next)
	}
	return sites
}

// sampleAnswers binds a sample coordinator's answers for problem p.
func sampleAnswers(p Problem, c *sample.Coordinator) Answers {
	switch p {
	case Count:
		return Answers{Count: c.Count}
	case Freq:
		return Answers{Freq: c.Freq}
	}
	return rankAnswers(c.Rank, nil)
}

// rankAnswers answers count queries from a rank function, and quantile
// queries by bisecting it when the coordinator has no quantile of its own.
func rankAnswers(rankFn func(float64) float64, quantile func(q, lo, hi float64) float64) Answers {
	if quantile == nil {
		quantile = bisect(rankFn)
	}
	return Answers{
		Count:    func() float64 { return rankFn(math.Inf(1)) },
		Rank:     rankFn,
		Quantile: quantile,
	}
}

// medianOf answers each query with the median of the copies' answers.
func medianOf(copies []Answers) Answers {
	median := func(answer func(Answers) float64) float64 {
		ests := make([]float64, len(copies))
		for i, a := range copies {
			ests[i] = answer(a)
		}
		return stats.Median(ests)
	}
	if copies[0].Rank != nil {
		return rankAnswers(func(x float64) float64 {
			return median(func(a Answers) float64 { return a.Rank(x) })
		}, nil)
	}
	return Answers{Freq: func(item int64) float64 {
		return median(func(a Answers) float64 { return a.Freq(item) })
	}}
}

// bisect turns a rank function into a quantile function: it locates, by
// binary search over [lo, hi], a value whose estimated rank is q·n̂. On an
// empty tracker (n̂ = 0) there is no value of any rank, so it returns NaN.
func bisect(rankFn func(float64) float64) func(q, lo, hi float64) float64 {
	return func(q, lo, hi float64) float64 {
		total := rankFn(math.Inf(1))
		if total == 0 {
			return math.NaN()
		}
		target := q * total
		for i := 0; i < 64 && hi-lo > 1e-9*(1+math.Abs(hi)); i++ {
			mid := (lo + hi) / 2
			if rankFn(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
}
