package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/serve"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}, {40, 0.75}, {15, 0.5}, {3, 0.5},
	} {
		if got := tailPct(c.n, 0.99); got != c.want {
			t.Errorf("tailPct(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// 1..500: the reported tail must leave exactly ten samples beyond it.
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	d := summarize(xs, 0.99)
	if d.N != 500 || d.TailPct != 0.98 || d.Tail != 490 || d.P50 != 250 {
		t.Fatalf("summarize = %+v, want n=500 p50=250 tail=490 at 0.98", d)
	}
	beyond := 0
	for _, x := range xs {
		if x > d.Tail {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
}

func TestWindowedMedians(t *testing.T) {
	w := [][]float64{{1, 2, 3}, {10, 20, 30}, {}, {100, 200, 300}}
	p50, tail, ds := windowed(w)
	if len(ds) != 3 || p50 != 20 || tail != 20 {
		t.Fatalf("windowed = %g, %g, %d windows; want 20, 20, 3", p50, tail, len(ds))
	}
	got := splitAt([]float64{1, 2, 3, 4, 5}, []int{0, 2, 2, 4})
	if len(got) != 4 || len(got[0]) != 2 || len(got[1]) != 0 || len(got[2]) != 2 || len(got[3]) != 1 {
		t.Fatalf("splitAt = %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100},
		// Overlapping children count once; the second pokes out of the
		// parent and is clipped.
		{ID: 2, Parent: 1, Layer: "b", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Layer: "b", Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 2, Layer: "c", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestAdoptLinksEnclosingSpan(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 7, Layer: "serve.handler", Start: 0, End: 100},
		{ID: 2, Trace: 8, Layer: "serve.handler", Start: 50, End: 300},
		{ID: 3, Layer: "serve.backend", Start: 10, End: 40},
		{ID: 4, Layer: "serve.backend", Start: 120, End: 200},
		{ID: 5, Layer: "serve.backend", Start: 400, End: 410},
	}
	adopt(spans, "serve.backend", "serve.handler")
	for _, c := range []struct{ i, parent, trace int64 }{{2, 1, 7}, {3, 2, 8}, {4, 0, 0}} {
		if s := spans[c.i]; s.Parent != c.parent || s.Trace != c.trace {
			t.Errorf("span %d: parent %d trace %d, want %d %d", s.ID, s.Parent, s.Trace, c.parent, c.trace)
		}
	}
}

// A serving backend that stalls must delay the requests scheduled behind
// it: the open-loop generator times each request from its due time, so a
// request that waited on the stalled connection reports the wait, which a
// send-to-answer timer would hide.
func TestStallDelaysQueuedRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	var calls atomic.Int64
	api := &serve.Server{Backend: serve.Funcs{CountFn: func() (float64, error) {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		return 0, nil
	}}}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	g := newLoadgen(srv.URL, 1, nil)
	defer g.close()
	wt, err := newWaiter()
	if err != nil {
		t.Fatal(err)
	}
	defer wt.close()
	jobs := make([]job, 200)
	for i := range jobs {
		jobs[i] = job{kind: kindCount}
	}
	const rate = 1000.0
	out, err := g.runStep(wt, jobs, rate, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Find the stalled request, then look at the one due 10 ms after it.
	stalled := -1
	for i, o := range out {
		if o.done.Sub(o.sent) >= stall {
			stalled = i
			break
		}
	}
	if stalled < 0 {
		t.Fatal("no request saw the stall")
	}
	behind := out[stalled+10]
	if lat := behind.done.Sub(behind.due); lat < stall-15*time.Millisecond {
		t.Errorf("request due 10ms after the stall: latency %v, want >= %v", lat, stall-15*time.Millisecond)
	}
	if svc := behind.done.Sub(behind.sent); svc >= stall/2 {
		t.Errorf("request behind the stall took %v itself; the test needs it to be fast", svc)
	}
	st := summarizeStep(rate, jobs, out, eps)
	if st.Sent != len(jobs) || st.Failed != 0 || st.Abandoned != 0 {
		t.Fatalf("step stats %+v", st)
	}
	if st.LagMS.P50 > 1 {
		t.Errorf("pacer lag p50 %.3f ms: the pacer fell behind an idle schedule", st.LagMS.P50)
	}
}

func TestBracketCheck(t *testing.T) {
	for _, c := range []struct {
		est    float64
		lo, hi int64
		ok     bool
	}{
		{0, 0, 0, true}, {1, 0, 0, true}, {100, 100, 100, true}, {104, 100, 100, true},
		{106, 100, 100, false}, {94, 100, 100, false}, {150, 100, 200, true},
	} {
		if got := withinBracket(c.est, c.lo, c.hi, 0.05); got != c.ok {
			t.Errorf("withinBracket(%g, %d, %d) = %v", c.est, c.lo, c.hi, got)
		}
	}
}

func TestFenwickRanks(t *testing.T) {
	f := newFenwick(8)
	for _, v := range []int{0, 3, 3, 7} {
		f.add(v)
	}
	for _, c := range []struct {
		x           float64
		below, atMo int64
	}{{-1, 0, 0}, {0, 0, 1}, {0.5, 1, 1}, {3, 1, 3}, {3.5, 3, 3}, {7, 3, 4}, {9, 4, 4}} {
		if b, a := f.below(c.x), f.atMostX(c.x); b != c.below || a != c.atMo {
			t.Errorf("x=%g: below %d atMost %d, want %d %d", c.x, b, a, c.below, c.atMo)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// program reports equal to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(specs))
		}
		for i := range min(len(declared), len(specs)) {
			if declared[i].Name != specs[i].name || declared[i].Unit != specs[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}
