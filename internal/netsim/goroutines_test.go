package netsim

import (
	"bytes"
	goruntime "runtime"
	"testing"

	"disttrack/internal/count"
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
)

// goroutineStacks returns every goroutine's stack trace, one per entry.
func goroutineStacks() [][]byte {
	buf := make([]byte, 1<<20)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(buf[:n], []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// checkGoroutines drives a mounted transport to quiescence and checks its
// goroutine footprint: exactly want goroutines in site loops, at most want
// more goroutines than before mounting (earlier tests' goroutines may still
// be exiting, never more), and none in coordinator-delivery code — the
// coordinator runs on the settling goroutine, which here is the test's own.
func checkGoroutines(t *testing.T, before, want int) {
	t.Helper()
	if after := goruntime.NumGoroutine(); after-before > want {
		t.Fatalf("goroutines: %d before mounting, %d after driving (want at most +%d)", before, after, want)
	}
	loops := 0
	for _, g := range goroutineStacks() {
		if bytes.Contains(g, []byte("netsim.(*Cluster).siteLoop")) {
			loops++
		}
		if bytes.Contains(g, []byte("(*Fabric).DeliverUp")) || bytes.Contains(g, []byte("netsim.(*Cluster).pump")) {
			t.Fatalf("a goroutine is in coordinator-delivery code:\n%s", g)
		}
	}
	if loops != want {
		t.Fatalf("%d goroutines in site loops, want %d", loops, want)
	}
}

// TestStartAddsOnlySiteGoroutines pins the goroutine transport's delivery
// mode: one goroutine per site, and the coordinator run by whoever settles
// the barrier.
func TestStartAddsOnlySiteGoroutines(t *testing.T) {
	const k, n = 16, 20000
	before := goruntime.NumGoroutine()
	p, _ := count.NewProtocol(count.Config{K: k, Eps: 0.05}, 3)
	c := Start(p)
	defer c.Stop()
	for i := 0; i < n; i++ {
		c.Arrive(i%k, 0, 0)
	}
	c.Quiesce()
	if m := c.Metrics(); m.MessagesDown == 0 {
		t.Fatalf("no broadcast reached the site loops: %+v", m)
	}
	checkGoroutines(t, before, k)
}

// TestTreeAddsOnlySiteGoroutines is the tree variant: a two-level tree over
// netsim runs one goroutine per leaf plus one per aggregator (the root
// fabric's sites), and no coordinator loop at any level.
func TestTreeAddsOnlySiteGoroutines(t *testing.T) {
	const leaves, fanout, n = 256, 16, 50000
	before := goruntime.NumGoroutine()
	tp, _ := count.NewTreeProtocol(count.Config{K: leaves, Eps: 0.1}, fanout, 5)
	tr, err := runtime.NewTree(tp, func(p proto.Protocol) (runtime.Transport, error) {
		return Start(p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < n; i++ {
		tr.Arrive(i%leaves, 0, 0)
	}
	tr.Quiesce()
	if m := tr.Metrics(); m.MessagesDown == 0 {
		t.Fatalf("no broadcast reached the site loops: %+v", m)
	}
	checkGoroutines(t, before, leaves+len(tp.Groups))
}
