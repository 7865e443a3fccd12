package rank

import (
	"testing"

	"disttrack/internal/netsim"
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
)

// walkSpaceWords is the reference for Coordinator.SpaceWords: it charges
// every chunk record, sample and present node snapshot by walking the whole
// coordinator state, which is what the running tally must equal.
func walkSpaceWords(c *Coordinator) int {
	w := c.rc.SpaceWords() + 1
	for _, siteChunks := range c.chunks {
		for _, v := range siteChunks {
			if v == nil {
				continue
			}
			w += 3 + 2*len(v.samples)
			for _, lvl := range v.levels {
				for _, sn := range lvl {
					if sn.N > 0 {
						w += sn.Words()
					}
				}
			}
		}
	}
	return w
}

// checkTally fails the test unless the tally matches the walk.
func checkTally(t *testing.T, what string, c *Coordinator) int {
	t.Helper()
	got, want := c.SpaceWords(), walkSpaceWords(c)
	if got != want {
		t.Fatalf("%s: SpaceWords() = %d, walk = %d", what, got, want)
	}
	return got
}

// checkedCoord and checkedAgg compare the tally with the walk every time a
// transport probes the coordinator's space.
type checkedCoord struct {
	*Coordinator
	t      *testing.T
	probes *int
}

func (c checkedCoord) SpaceWords() int {
	*c.probes++
	return checkTally(c.t, "probe", c.Coordinator)
}

type checkedAgg struct {
	*Agg
	t      *testing.T
	probes *int
}

func (a checkedAgg) SpaceWords() int {
	*a.probes++
	return checkTally(a.t, "aggregator probe", a.Coordinator)
}

// uniformStream returns n arrivals of uniform values in [0, 65536) at
// uniform sites, the shape of the rank benchmark workload.
func uniformStream(seed uint64, k, n int) (sites []int, values []float64) {
	rng := stats.New(seed)
	sites = make([]int, n)
	values = make([]float64, n)
	for i := range sites {
		sites[i] = rng.Intn(k)
		values[i] = float64(rng.Intn(1 << 16))
	}
	return sites, values
}

func TestSpaceTallyMatchesWalkSim(t *testing.T) {
	const k, n = 64, 200_000
	p, coord := NewProtocol(Config{K: k, Eps: 0.05}, 7)
	probes := 0
	p.Coord = checkedCoord{Coordinator: coord, t: t, probes: &probes}
	h := sim.New(p)
	h.SpaceProbeEvery = 97
	sites, values := uniformStream(11, k, n)
	for i := range sites {
		h.Arrive(sites[i], 0, values[i])
	}
	h.Probe()
	if probes < n/97 {
		t.Fatalf("only %d probes", probes)
	}
	if m := h.Metrics(); m.MaxCoordSpace != coord.SpaceWords() {
		// Coordinator state only grows, so the high-water mark is the
		// final state.
		t.Fatalf("MaxCoordSpace = %d, final SpaceWords = %d", m.MaxCoordSpace, coord.SpaceWords())
	}
}

func TestSpaceTallyMatchesWalkTree(t *testing.T) {
	const k, fanout, n = 48, 8, 100_000
	tp, root := NewTreeProtocol(Config{K: k, Eps: 0.1}, fanout, 3)
	probes := 0
	for g := range tp.Groups {
		tp.Groups[g].Coord = checkedAgg{Agg: tp.Groups[g].Coord.(*Agg), t: t, probes: &probes}
	}
	tp.Root.Coord = checkedCoord{Coordinator: root, t: t, probes: &probes}
	tr, err := runtime.NewTree(tp, func(p proto.Protocol) (runtime.Transport, error) {
		h := sim.New(p)
		h.SpaceProbeEvery = 61
		return h, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sites, values := uniformStream(5, k, n)
	for i := range sites {
		tr.Arrive(sites[i], 0, values[i])
	}
	tr.Quiesce()
	tr.Probe()
	if probes < len(tp.Groups)+1 {
		t.Fatalf("only %d probes", probes)
	}
	if root.Round() == 0 {
		t.Fatal("root never left round 0; the stream is too short to exercise chunk churn")
	}
}

func TestSpaceTallyAfterRestore(t *testing.T) {
	const k = 16
	p, src := NewProtocol(Config{K: k, Eps: 0.05}, 13)
	h := sim.New(p)
	sites, values := uniformStream(13, k, 60_000)
	for i := range sites {
		h.Arrive(sites[i], 0, values[i])
	}
	want := checkTally(t, "source", src)

	dst := NewCoordinator(Config{K: k, Eps: 0.05})
	src.SnapshotState(dst.RestoreState)
	if got := checkTally(t, "restored", dst); got != want {
		t.Fatalf("restored SpaceWords = %d, source = %d", got, want)
	}

	// Replaying the whole snapshot again re-creates every chunk id that
	// already exists; the result must be charged once, not twice.
	src.SnapshotState(dst.RestoreState)
	if got := checkTally(t, "restored twice", dst); got != want {
		t.Fatalf("restored-twice SpaceWords = %d, source = %d", got, want)
	}

	// A bare chunk record over an existing, populated id empties it.
	var site int
	var id int64 = -1
	for s, siteChunks := range dst.chunks {
		for i, v := range siteChunks {
			if v != nil && len(v.samples) > 0 && len(v.levels) > 0 {
				site, id = s, int64(i)
			}
		}
	}
	if id < 0 {
		t.Fatal("no populated chunk to re-create")
	}
	before := checkTally(t, "before re-create", dst)
	v := dst.chunks[site][id]
	dst.RestoreState(site, proto.StateMsg{Key: stateChunk, A: id, B: v.b, F: v.p})
	if after := checkTally(t, "after re-create", dst); after >= before {
		t.Fatalf("re-creating a populated chunk left SpaceWords at %d (was %d)", after, before)
	}

	// A duplicated summary replaces its node in place.
	sn := src.chunks[site][id].levels[0][0]
	dst.Receive(site, SummaryMsg{Chunk: id, Level: 0, Pos: 0, Snap: sn}, nil, nil)
	dst.Receive(site, SummaryMsg{Chunk: id, Level: 0, Pos: 0, Snap: sn}, nil, nil)
	checkTally(t, "after duplicate summary", dst)
}

// TestSpaceHighWaterPinned pins the space high-water marks of a fixed-seed
// run on the sequential and goroutine transports; the figures are the ones
// the full per-probe walk produced, so the tally must reproduce them.
func TestSpaceHighWaterPinned(t *testing.T) {
	const k, n = 64, 300_000
	const wantSite, wantCoord = 202, 144035
	sites, values := uniformStream(41, k, n)
	run := func(tr runtime.Transport) runtime.Metrics {
		defer tr.Close()
		for i := range sites {
			tr.Arrive(sites[i], 0, values[i])
		}
		tr.Quiesce()
		tr.Probe()
		return tr.Metrics()
	}
	p, _ := NewProtocol(Config{K: k, Eps: 0.05}, 41)
	seq := run(sim.New(p))
	p, _ = NewProtocol(Config{K: k, Eps: 0.05}, 41)
	gor := run(netsim.Start(p))
	for _, c := range []struct {
		name string
		m    runtime.Metrics
	}{{"sequential", seq}, {"goroutine", gor}} {
		if c.m.MaxSiteSpace != wantSite || c.m.MaxCoordSpace != wantCoord {
			t.Errorf("%s: MaxSiteSpace, MaxCoordSpace = %d, %d; want %d, %d",
				c.name, c.m.MaxSiteSpace, c.m.MaxCoordSpace, wantSite, wantCoord)
		}
	}
}
