package freq_test

import (
	"reflect"
	"testing"

	"disttrack/internal/freq"
	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
)

// checkedDet wraps a deterministic coordinator and compares its per-item
// totals with the slot walk after every Receive.
type checkedDet struct {
	*freq.DetCoordinator
	t        *testing.T
	receives int
}

func (c *checkedDet) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	c.DetCoordinator.Receive(from, m, send, broadcast)
	c.receives++
	if got, want := freq.DetTotals(c.DetCoordinator), freq.WalkTotals(c.DetCoordinator); !reflect.DeepEqual(got, want) {
		c.t.Fatalf("after receive %d: totals %v, slot walk %v", c.receives, got, want)
	}
}

// TestDetTotalsMatchWalk pins the deterministic coordinator's O(1) point
// queries to the slot walk they replace: the per-item totals equal the walk
// after every Receive of a skewed stream (slots are relabelled and
// overwritten throughout), and again after a crash-restart that rebuilds a
// fresh coordinator by replaying the write-ahead log.
func TestDetTotalsMatchWalk(t *testing.T) {
	const k, eps, n = 8, 0.1, 30000
	p, inner := freq.NewDetProtocol(k, eps)
	live := &checkedDet{DetCoordinator: inner, t: t}
	p.Coord = live
	h := sim.New(p)
	store := persist.NewMem()
	lg := persist.NewLogger(store, live, 0, nil)
	h.SetCoordLog(func(from int, m proto.Message) {
		if err := lg.Log(from, m); err != nil {
			t.Fatal(err)
		}
	})
	rng := stats.New(3)
	z := stats.NewZipf(rng, 500, 1.1)
	for i := 0; i < n; i++ {
		h.Arrive(rng.Intn(k), int64(z.Draw()), 0)
	}
	if live.receives < 1000 {
		t.Fatalf("only %d receives: the stream did not exercise relabelling", live.receives)
	}

	fresh := &checkedDet{DetCoordinator: freq.NewDetCoordinator(k), t: t}
	res, err := persist.Recover(store, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayedFrames != int64(live.receives) {
		t.Fatalf("replayed %d frames, want %d", res.ReplayedFrames, live.receives)
	}
	if got, want := freq.DetTotals(fresh.DetCoordinator), freq.DetTotals(inner); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed totals %v, live totals %v", got, want)
	}
	for j := int64(0); j < 520; j++ {
		if got, want := fresh.Estimate(j), inner.Estimate(j); got != want {
			t.Fatalf("item %d: replayed estimate %v, live %v", j, got, want)
		}
	}
}
