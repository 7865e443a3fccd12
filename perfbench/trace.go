package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span whose call caused this one (0
// for a root). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per seam.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// spanCap is the span buffer reserved up front (about 12 MB), enough for
// a traced run on the reference box without regrowing the buffer under the
// lock mid-run.
const spanCap = 1 << 18

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, spanCap)} }

// now returns the tracer clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span ID, so a caller can name a span as the parent of
// the calls it makes before the span itself ends (0 on a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// end records span id, started at start (a value of now), as ending now.
func (t *tracer) end(id int64, layer string, trace, parent, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Start: start, End: end})
	t.mu.Unlock()
}

// add records a finished span that started at start.
func (t *tracer) add(layer string, trace, parent, start int64) {
	t.end(t.newID(), layer, trace, parent, start)
}

// take returns the recorded spans and clears the tracer.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = make([]span, 0, spanCap)
	return s
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Overlapping children are merged first,
// so concurrent children are not subtracted twice, and children are clipped
// to the parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// adopt links each unparented span of layer child to the span of layer
// parent that encloses it, preferring a parent of the same trace and, among
// several, the latest-starting one. It serves seams where the call below
// does not carry the caller's identity (serve.Funcs callbacks receive no
// request context); with one request per connection at a time, only
// concurrent requests of the same kind can be confused, and those have the
// same layer split.
func adopt(spans []span, child, parent string) {
	var ps []span
	for _, s := range spans {
		if s.Layer == parent {
			ps = append(ps, s)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	for i := range spans {
		c := &spans[i]
		if c.Layer != child || c.Parent != 0 {
			continue
		}
		// Parents starting after the child cannot enclose it.
		j := sort.Search(len(ps), func(k int) bool { return ps[k].Start > c.Start })
		for j--; j >= 0; j-- {
			p := ps[j]
			if p.End >= c.End && (c.Trace == 0 || p.Trace == c.Trace) {
				c.Parent, c.Trace = p.ID, p.Trace
				break
			}
			if c.Start-p.Start > int64(time.Second) {
				break
			}
		}
	}
}

// layerSamples returns the self times (selfOnly) or durations of every span
// of layer, in microseconds.
func layerSamples(spans []span, self map[int64]int64, layer string, selfOnly bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer != layer {
			continue
		}
		d := s.dur()
		if selfOnly {
			d = self[s.ID]
		}
		out = append(out, float64(d)/1e3)
	}
	return out
}

// layerTotal returns the summed duration of every span of layer.
func layerTotal(spans []span, layer string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Layer == layer {
			d += s.dur()
		}
	}
	return time.Duration(d)
}
