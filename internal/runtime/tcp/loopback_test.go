package tcp_test

import (
	"bytes"
	"reflect"
	goruntime "runtime"
	"testing"

	"disttrack/internal/count"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/summary/merge"
	"disttrack/internal/wire"
)

// TestLoopbackStartsNoGoroutines pins the loopback's delivery mode: every
// frame is written, read back and delivered by the goroutine settling the
// barrier, so mounting and driving a protocol leaves the goroutine count
// where it was.
func TestLoopbackStartsNoGoroutines(t *testing.T) {
	const k, n = 16, 20000
	before := goruntime.NumGoroutine()
	p, _ := count.NewProtocol(count.Config{K: k, Eps: 0.05}, 3)
	tr, err := tcp.StartLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < n; i++ {
		tr.Arrive(i%k, 0, 0)
	}
	tr.Quiesce()
	if m := tr.Metrics(); m.Messages() == 0 {
		t.Fatalf("no traffic crossed the sockets: %+v", m)
	}
	// Goroutines left over from earlier tests may exit meanwhile, so the
	// count may drop; it must not grow, and no goroutine may be running
	// the loopback's code.
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before StartLoopback, %d after driving it", before, after)
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:goruntime.Stack(stacks, true)]
	for _, g := range bytes.Split(stacks, []byte("\n\n")) {
		if bytes.Contains(g, []byte("tcp.(*Loopback)")) && !bytes.Contains(g, []byte("TestLoopbackStartsNoGoroutines")) {
			t.Fatalf("a goroutine is running loopback code:\n%s", g)
		}
	}
}

// bigSite emits msg on its first arrival and keeps what the coordinator
// sends back.
type bigSite struct {
	msg  proto.Message
	sent bool
	got  []proto.Message
}

func (s *bigSite) Arrive(_ int64, _ float64, out func(proto.Message)) {
	if !s.sent {
		s.sent = true
		out(s.msg)
	}
}
func (s *bigSite) Receive(m proto.Message, _ func(proto.Message)) { s.got = append(s.got, m) }
func (s *bigSite) SpaceWords() int                                { return 0 }

// echoCoord keeps what it receives and broadcasts it back to every site.
type echoCoord struct{ got []proto.Message }

func (c *echoCoord) Receive(_ int, m proto.Message, _ func(int, proto.Message), broadcast func(proto.Message)) {
	c.got = append(c.got, m)
	broadcast(m)
}
func (c *echoCoord) SpaceWords() int { return 0 }

// TestLoopbackLargeFrame pushes a ~4.8 MB rank summary through the
// loopback — one site up, then broadcast down to every site — and checks it
// decodes identically at each end. The single thread writes and reads back
// both directions itself, and one write of the whole frame would fill the
// socket buffers with nobody reading (it hangs here when the write is not
// chunked), so this also pins that large frames cannot deadlock it.
func TestLoopbackLargeFrame(t *testing.T) {
	const k, vals = 4, 600_000
	values := make([]float64, vals)
	for i := range values {
		values[i] = float64(i) * 0.5
	}
	big := rank.SummaryMsg{Chunk: 7, Level: 3, Pos: 1, Snap: merge.Snapshot{
		N:       vals,
		Buffers: []merge.WeightedBuffer{{Weight: 2, Values: values}},
	}}
	frame, err := wire.AppendFrame(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 4<<20 {
		t.Fatalf("test frame is %d bytes, want at least 4 MiB", len(frame))
	}
	coord := &echoCoord{}
	sites := make([]*bigSite, k)
	p := proto.Protocol{Coord: coord, Sites: make([]proto.Site, k)}
	for i := range sites {
		sites[i] = &bigSite{msg: big}
		p.Sites[i] = sites[i]
	}
	tr, err := tcp.StartLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	r := runtime.New(tr)
	r.Arrive(2, 0, 0)
	if len(coord.got) != 1 || !reflect.DeepEqual(coord.got[0], big) {
		t.Fatalf("coordinator received %d messages, or a different summary", len(coord.got))
	}
	for i, s := range sites {
		if len(s.got) != 1 || !reflect.DeepEqual(s.got[0], big) {
			t.Fatalf("site %d received %d messages, or a different summary", i, len(s.got))
		}
	}
	if m := r.Metrics(); m.MessagesUp != 1 || m.MessagesDown != k {
		t.Fatalf("ledger %+v, want 1 message up and %d down", m, k)
	}
}
