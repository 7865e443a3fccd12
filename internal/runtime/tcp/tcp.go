// Package tcp hosts the socket-backed transports: the in-process TCP
// loopback fabric (Loopback, mounted via disttrack.TransportTCP) and the
// genuinely distributed coordinator/site hosts (Server, SiteConn) used by
// cmd/tracksim serve / connect. Both ship every protocol message as a
// length-prefixed frame carrying its internal/wire encoding. The Loopback
// runs no goroutines of its own: the goroutine that settles its barrier
// moves every frame; Server and SiteConn run reader goroutines per
// connection, as processes on a real network must.
package tcp

import (
	"fmt"
	"io"
	"net"
	"slices"

	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/wire"
)

// Loopback hosts one protocol over real sockets: each site is connected to
// the coordinator by its own TCP connection on the loopback interface, and
// every protocol message crosses the kernel as a length-prefixed frame
// carrying its wire encoding (internal/wire) — encode, write, loopback TCP,
// read, decode. It starts no goroutines. Sends buffer their frames per
// connection; at each flush boundary the buffered run is written and read
// straight back off the peer socket, and queued. The goroutine settling the
// embedded runtime.Fabric's barrier pumps that queue: it decodes each run
// and delivers its frames in send order (Fabric.DeliverUp/DeliverDown),
// whose replies queue further runs, until the cascade has quiesced. That is
// the paper's instant-communication model with real sockets and one thread
// of control.
//
// For a fixed seed the protocol behaves identically to the sequential and
// goroutine transports — same per-link message sequences, same Metrics,
// same query answers (the transport-independence test in the root package
// pins this).
type Loopback struct {
	*runtime.Fabric

	siteConns  []net.Conn // site-side (dialed) connection per site
	coordConns []net.Conn // coordinator-side (accepted) connection per site

	// Pending outbound frames per connection, encoded back to back and
	// written at each flush boundary: the end of an injection, a release,
	// or a delivered run.
	sitePend   [][]byte
	coordPend  [][]byte
	coordDirty []int

	// rx holds the bytes read back off the receiving sockets and not yet
	// delivered; runs indexes it by written run, in send order, and next is
	// the first run still to deliver.
	rx   []byte
	runs []rxRun
	next int
}

// rxRun is one flushed run of frames on one link, read back into rx.
type rxRun struct {
	site     int  // the link's site
	up       bool // site -> coordinator
	off, end int  // the run's bytes: rx[off:end]
}

// chunk bounds each socket write. Everything written is read back off the
// peer before the next write, so a run of any size — up to a MaxFrame
// frame — never has more than one chunk in the kernel, well inside any
// loopback receive window: the single thread cannot block on itself.
const chunk = 16 << 10

// StartLoopback mounts the protocol on a fresh loopback TCP fabric: it
// listens on an ephemeral 127.0.0.1 port and, site by site, dials a
// connection, accepts its coordinator end, and checks the Hello handshake
// that introduces it.
func StartLoopback(p proto.Protocol) (*Loopback, error) {
	k := p.K()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: transport listen: %w", err)
	}
	defer ln.Close()

	c := &Loopback{
		Fabric:     runtime.NewFabric(p),
		siteConns:  make([]net.Conn, k),
		coordConns: make([]net.Conn, k),
		sitePend:   make([][]byte, k),
		coordPend:  make([][]byte, k),
	}
	// One connection at a time: the kernel completes a dial into the
	// listen backlog without an Accept, so no second goroutine is needed,
	// and the backlog never holds more than the connection just dialed.
	var buf []byte
	for i := 0; i < k; i++ {
		if err := c.connect(ln, i, k, &buf); err != nil {
			c.closeConns()
			return nil, fmt.Errorf("tcp: transport handshake: %w", err)
		}
	}

	for i := 0; i < k; i++ {
		i := i
		c.BindSite(i,
			func(m proto.Message) {
				var err error
				c.sitePend[i], err = wire.AppendFrame(c.sitePend[i], m)
				if err != nil {
					fail("site encode", err)
				}
			},
			func() { c.flushSite(i) })
	}
	c.BindCoord(
		func(to int, m proto.Message) {
			if len(c.coordPend[to]) == 0 {
				c.coordDirty = append(c.coordDirty, to)
			}
			var err error
			c.coordPend[to], err = wire.AppendFrame(c.coordPend[to], m)
			if err != nil {
				fail("coord encode", err)
			}
		},
		c.flushCoord)
	c.Inflight.SetPump(c.pump, false)
	return c, nil
}

// connect dials site i's connection, accepts its coordinator end, and
// checks the Hello frame the site end introduces itself with.
func (c *Loopback) connect(ln net.Listener, i, k int, buf *[]byte) error {
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	c.siteConns[i] = conn
	*buf, err = wire.AppendFrame((*buf)[:0], wire.Hello{Site: i, K: k})
	if err == nil {
		_, err = conn.Write(*buf)
	}
	if err != nil {
		return err
	}
	peer, err := ln.Accept()
	if err != nil {
		return err
	}
	var m proto.Message
	m, *buf, err = wire.ReadFrame(peer, *buf)
	if hello, ok := m.(wire.Hello); err != nil || !ok || hello.Site != i || hello.K != k {
		peer.Close()
		if err == nil {
			err = fmt.Errorf("bad handshake %#v", m)
		}
		return err
	}
	c.coordConns[i] = peer
	return nil
}

// fail aborts on an unexpected transport error. Loopback sockets between
// two ends of one healthy process do not fail; anything else is a bug, and
// swallowing it would leave tokens no delivery will ever retire.
func fail(op string, err error) {
	panic(fmt.Sprintf("tcp: transport %s: %v", op, err))
}

// flushSite writes site i's pending frames to the coordinator.
func (c *Loopback) flushSite(i int) {
	if len(c.sitePend[i]) == 0 {
		return
	}
	c.send(c.siteConns[i], c.coordConns[i], c.sitePend[i], i, true)
	c.sitePend[i] = c.sitePend[i][:0]
}

// flushCoord writes the coordinator's pending frames, one run per
// destination it sent to.
func (c *Loopback) flushCoord() {
	for _, to := range c.coordDirty {
		c.send(c.coordConns[to], c.siteConns[to], c.coordPend[to], to, false)
		c.coordPend[to] = c.coordPend[to][:0]
	}
	c.coordDirty = c.coordDirty[:0]
}

// send writes b on w chunk by chunk, reading each chunk back off the peer
// end r into rx before writing the next, and queues the run for delivery.
func (c *Loopback) send(w, r net.Conn, b []byte, site int, up bool) {
	off := len(c.rx)
	for len(b) > 0 {
		n := min(len(b), chunk)
		if _, err := w.Write(b[:n]); err != nil {
			fail("write", err)
		}
		at := len(c.rx)
		c.rx = slices.Grow(c.rx, n)[:at+n]
		if _, err := io.ReadFull(r, c.rx[at:]); err != nil {
			fail("read", err)
		}
		b = b[n:]
	}
	c.runs = append(c.runs, rxRun{site: site, up: up, off: off, end: len(c.rx)})
}

// pump is the barrier's delivery hook: it delivers the oldest queued run,
// frame by frame, then flushes what the receiver sent in reply — queueing
// further runs behind everything already read. It reports false when
// nothing is queued.
func (c *Loopback) pump() bool {
	if c.next == len(c.runs) {
		return false
	}
	r := c.runs[c.next]
	c.next++
	for off := r.off; off < r.end; {
		// Re-slice rx every frame: a delivery's flush may grow it.
		payload, rest, err := wire.NextFrame(c.rx[off:r.end])
		if err != nil {
			fail("frame", err)
		}
		m, err := wire.DecodeFrame(payload)
		if err != nil {
			fail("decode", err)
		}
		off = r.end - len(rest)
		if r.up {
			c.DeliverUp(r.site, m)
		} else {
			c.DeliverDown(r.site, m)
		}
	}
	if r.up {
		c.flushCoord()
	} else {
		c.flushSite(r.site)
	}
	if c.next == len(c.runs) {
		c.rx, c.runs, c.next = c.rx[:0], c.runs[:0], 0
	}
	return true
}

func (c *Loopback) closeConns() {
	for _, conn := range c.siteConns {
		if conn != nil {
			conn.Close()
		}
	}
	for _, conn := range c.coordConns {
		if conn != nil {
			conn.Close()
		}
	}
}

// Close implements runtime.Transport: it closes the sockets. The transport
// must be quiescent.
func (c *Loopback) Close() {
	if c.Closed() {
		return
	}
	c.Shutdown()
	c.closeConns()
}
