package count

import (
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/sim"
	"disttrack/internal/workload"
)

// walkEstimate is the per-site form of the estimator, Σ over reported
// sites of n̄_i − 1 + 1/p: the oracle for the coordinator's running tally.
func walkEstimate(c *Coordinator) float64 {
	est := 0.0
	for _, nb := range c.nBar {
		if nb > 0 {
			est += float64(nb) - 1 + 1/c.p
		}
	}
	return est
}

// oracleCoord checks the tallied Estimate against the walk after every
// message the coordinator receives.
type oracleCoord struct {
	*Coordinator
	t        *testing.T
	received int
}

func (o *oracleCoord) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	o.Coordinator.Receive(from, m, send, broadcast)
	o.received++
	if got, want := o.Estimate(), walkEstimate(o.Coordinator); got != want {
		o.t.Fatalf("after message %d (%T from %d): tallied estimate %v, walk %v", o.received, m, from, got, want)
	}
}

// TestEstimateTallyMatchesWalk pins the O(1) Estimate to the per-site walk
// bit for bit, after every Receive — updates, adjustments (including ones
// that drop a site's n̄ to 0) and round traffic — and across a
// Snapshot→Restore into a fresh coordinator.
func TestEstimateTallyMatchesWalk(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		n    int
		seed uint64
	}{
		{Config{K: 16, Eps: 0.05}, 200_000, 1},
		{Config{K: 64, Eps: 0.1, Rescale: 1}, 300_000, 2},
		{Config{K: 5, Eps: 0.3, Rescale: 1}, 50_000, 3},
	} {
		p, coord := NewProtocol(tc.cfg, tc.seed)
		oc := &oracleCoord{Coordinator: coord, t: t}
		p.Coord = oc
		h := sim.New(p)
		h.Run(workload.Config{N: tc.n, Placement: workload.RoundRobin(tc.cfg.K)}.Events(), nil)
		if oc.received == 0 || coord.P() == 1 {
			t.Fatalf("%+v: run never left p = 1 (%d messages)", tc.cfg, oc.received)
		}

		fresh := NewCoordinator(tc.cfg)
		coord.SnapshotState(fresh.RestoreState)
		if got, want := fresh.Estimate(), coord.Estimate(); got != want {
			t.Fatalf("%+v: restored estimate %v, original %v", tc.cfg, got, want)
		}
		if got, want := fresh.Estimate(), walkEstimate(fresh); got != want {
			t.Fatalf("%+v: restored tally %v, walk %v", tc.cfg, got, want)
		}
	}
}

// TestEstimateTallyDropsZeroedSite covers the AdjustMsg that lowers a
// site's n̄ to 0: the site leaves the estimate entirely.
func TestEstimateTallyDropsZeroedSite(t *testing.T) {
	c := NewCoordinator(Config{K: 3, Eps: 0.1})
	nop := func(int, proto.Message) {}
	cast := func(proto.Message) {}
	c.Receive(0, UpdateMsg{N: 5}, nop, cast)
	c.Receive(2, UpdateMsg{N: 7}, nop, cast)
	c.Receive(0, AdjustMsg{NBar: 0}, nop, cast)
	if got, want := c.Estimate(), walkEstimate(c); got != want || got != 7 {
		t.Fatalf("estimate %v, walk %v, want 7", got, want)
	}
}
