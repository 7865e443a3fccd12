package runtime

import (
	"sync"
	"sync/atomic"

	"disttrack/internal/proto"
)

// Mailbox is an unbounded FIFO usable from multiple producers with one
// consumer loop. Storage is a power-of-two ring: Put and Get are O(1) with
// no compaction copies, the ring grows by doubling when full, and a drained
// consumer can take every queued value in one critical section (GetBatch),
// so a loop pays one lock/wakeup per run of traffic instead of one per
// message.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []any  // power-of-two capacity
	head   uint64 // absolute pop counter; index = head & (len(ring)-1)
	tail   uint64 // absolute push counter
	closed bool
}

// NewMailbox returns an empty open mailbox.
func NewMailbox() *Mailbox {
	mb := &Mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// grow doubles the ring (initially to 64 slots), re-packing live entries
// from the head. Caller holds mu.
func (mb *Mailbox) grow() {
	n := len(mb.ring) * 2
	if n == 0 {
		n = 64
	}
	next := make([]any, n)
	live := mb.tail - mb.head
	mask := uint64(len(mb.ring) - 1)
	for i := uint64(0); i < live; i++ {
		next[i] = mb.ring[(mb.head+i)&mask]
	}
	mb.ring = next
	mb.head, mb.tail = 0, live
}

// Put enqueues v.
func (mb *Mailbox) Put(v any) {
	mb.mu.Lock()
	if mb.tail-mb.head == uint64(len(mb.ring)) {
		mb.grow()
	}
	mb.ring[mb.tail&uint64(len(mb.ring)-1)] = v
	mb.tail++
	mb.mu.Unlock()
	mb.cond.Signal()
}

// Get blocks until a value is available or the mailbox is closed (a closed
// mailbox still drains its queue before reporting false).
func (mb *Mailbox) Get() (any, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.head == mb.tail && !mb.closed {
		mb.cond.Wait()
	}
	if mb.head == mb.tail {
		return nil, false
	}
	i := mb.head & uint64(len(mb.ring)-1)
	v := mb.ring[i]
	mb.ring[i] = nil // drop the reference for the GC
	mb.head++
	return v, true
}

// GetBatch blocks like Get, then drains every queued value into buf
// (appended) in FIFO order — the batch-delivery path: one wakeup and one
// lock round trip per run of traffic. It returns false only when the
// mailbox is closed and empty.
func (mb *Mailbox) GetBatch(buf []any) ([]any, bool) {
	mb.mu.Lock()
	for mb.head == mb.tail && !mb.closed {
		mb.cond.Wait()
	}
	if mb.head == mb.tail {
		mb.mu.Unlock()
		return buf, false
	}
	mask := uint64(len(mb.ring) - 1)
	for mb.head != mb.tail {
		i := mb.head & mask
		buf = append(buf, mb.ring[i])
		mb.ring[i] = nil
		mb.head++
	}
	mb.mu.Unlock()
	return buf, true
}

// Close wakes all blocked consumers; Get/GetBatch drain the remaining queue
// and then report false.
func (mb *Mailbox) Close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// FromMsg is a site->coordinator protocol message with its sender.
type FromMsg struct {
	From int
	Msg  proto.Message
}

// Middleware intercepts every protocol message a Fabric-based transport
// carries, between cost accounting and delivery. The fault-injection layer
// (internal/runtime/faulty) is the only implementation; a nil middleware
// means direct delivery.
//
// Per-link calls are serial: Up(i, ...) runs under site i's injection mutex
// (the injecting goroutine for arrival-triggered sends, whichever goroutine
// delivers to site i for receive-triggered ones — never both at once), Down
// on the goroutine settling the barrier, which runs the coordinator on
// every concurrent transport. To deliver
// immediately the middleware calls deliver; to hold the message it queues
// the frame internally and parks its in-flight token (Fabric.Inflight.Park),
// then releases later from Release (the barrier's idle hook) by unparking
// the token and handing the message back to the transport
// (Fabric.ReleaseUp/ReleaseDown). Once the fabric is Closed, nothing may be
// released — the transport that would carry it is gone (check
// Fabric.Closed).
type Middleware interface {
	// Up intercepts a site->coordinator message already charged to the
	// ledger; deliver carries it to the coordinator.
	Up(from int, m proto.Message, deliver func(m proto.Message))
	// Down intercepts a coordinator->site message already charged to the
	// ledger; deliver carries it to site to.
	Down(to int, m proto.Message, deliver func(m proto.Message))
	// Release is the barrier's idle hook: release held traffic (everything
	// deliverable when full, only due traffic otherwise) and report whether
	// anything was released. Runs on the injecting goroutine at a
	// no-active-work instant.
	Release(full bool) bool
	// LiveSites reports how many sites are currently reachable (not killed
	// or partitioned by the fault plan).
	LiveSites() int
}

// Fabric is the shared core of the concurrent transports (goroutine
// mailboxes, TCP loopback): inline arrival injection, the delivery bodies
// (DeliverUp/DeliverDown), the in-flight counter that realizes the
// instant-communication quiescence barrier, the cost ledger, and
// quiesce-time space probing. A transport embeds *Fabric, registers its
// per-site and coordinator send (and optional flush) hooks with
// BindSite/BindCoord — sends are bracketed with CountUp/CountDown there, so
// Arrive's barrier covers every message — and hands each message it
// carries to DeliverUp or DeliverDown. Both transports install a pump on
// the barrier (Barrier.SetPump): the goroutine settling the barrier runs
// every DeliverUp itself, in send order, so the coordinator needs no
// goroutine of its own. Who calls DeliverDown is the transport's delivery
// mode:
//
//   - site loops: the goroutine transport (internal/netsim) runs one
//     goroutine per site draining a mailbox, and its sites' sends queue
//     for the pump from those goroutines (a shared pump);
//   - pump only: the TCP loopback (internal/runtime/tcp) delivers to sites
//     on the settling goroutine too, so one goroutine moves everything.
//
// Arrivals take the zero-hop fast path: Arrive runs the site machine on the
// injecting goroutine under that site's mutex, so a message-free arrival —
// the overwhelmingly common case under the paper's protocols — costs a
// mutex round trip and the barrier's atomics instead of two goroutine
// wakeups. DeliverDown takes the same mutex, which both serializes access
// to the site machine and keeps per-link middleware/tap calls serial.
type Fabric struct {
	p proto.Protocol

	// SpaceProbeEvery controls how often space is sampled at quiescent
	// instants (0 disables periodic probing; Probe still samples on
	// demand). Probes happen after an injection quiesces, so they read
	// protocol state race-free (the in-flight barrier orders them after
	// every handler).
	SpaceProbeEvery int

	// Inflight counts injected arrivals and undelivered messages;
	// DeliverUp/DeliverDown retire a message's token once it is handled.
	// Messages held inside the fault middleware park their token instead
	// (see Barrier).
	Inflight Barrier

	tap Tap
	mw  Middleware

	// siteMu[i] serializes site i's machine, its pending send buffer, and
	// its middleware link between the injecting goroutine (inline Arrive)
	// and whichever goroutine delivers to the site.
	siteMu []sync.Mutex

	// Per-site send path, built by BindSite: siteOut brackets an emitted
	// message with CountUp and routes it through the middleware to
	// siteDeliver; siteFlush (optional) is the transport's coalescing
	// boundary, called under siteMu after an injection or a release.
	siteOut     []func(m proto.Message)
	siteDeliver []func(m proto.Message)
	siteFlush   []func()

	// Coordinator send path, built by BindCoord (used by DeliverUp and
	// ReleaseDown — the coordinator machine never runs inline).
	coordSend      func(to int, m proto.Message)
	coordCast      func(m proto.Message)
	coordDeliverTo []func(m proto.Message)
	coordFlush     func()

	// coordLog, when set, observes every coordinator-bound protocol
	// message in DeliverUp immediately before the coordinator
	// applies it — the durability layer's write-ahead hook (it must panic
	// or abort on failure; a frame applied but not logged would be lost by
	// recovery). Nil costs one predictable branch on the delivery path.
	coordLog func(from int, m proto.Message)

	// closed flips when Shutdown runs, turning use-after-Close from a
	// silent in-flight-accounting deadlock into a loud panic (which the
	// ingest frontend converts into a terminal error).
	closed atomic.Bool

	messagesUp, messagesDown int64
	wordsUp, wordsDown       int64
	broadcasts, arrivals     int64

	// Space high-water marks, written only at quiescent instants from the
	// injecting goroutine (see Probe).
	maxSiteSpace, maxCoordSpace int
}

// NewFabric validates the protocol and builds the shared core. The
// transport must BindSite (for every site), BindCoord and install its
// delivery pump (Inflight.SetPump) before the first arrival.
func NewFabric(p proto.Protocol) *Fabric {
	if p.Coord == nil || len(p.Sites) == 0 {
		panic("runtime: protocol needs a coordinator and at least one site")
	}
	k := len(p.Sites)
	f := &Fabric{
		p:               p,
		SpaceProbeEvery: 1024,
		siteMu:          make([]sync.Mutex, k),
		siteOut:         make([]func(m proto.Message), k),
		siteDeliver:     make([]func(m proto.Message), k),
		siteFlush:       make([]func(), k),
	}
	f.Inflight.init()
	return f
}

// Protocol returns the mounted protocol.
func (f *Fabric) Protocol() proto.Protocol { return f.p }

// BindSite registers site i's transport delivery hook (carry one emitted
// message to the coordinator: enqueue on the coordinator mailbox, encode a
// frame, ...) and an optional flush hook marking the transport's coalescing
// boundary — flush runs under site i's mutex after every inline injection
// and every release, so buffered frames are always on the wire before the
// fabric settles. Sends a site emits while DeliverDown runs are flushed by
// the transport at its own batch edge. Bind before the first arrival.
func (f *Fabric) BindSite(i int, deliver func(m proto.Message), flush func()) {
	f.siteDeliver[i] = deliver
	f.siteFlush[i] = flush
	f.siteOut[i] = func(m proto.Message) {
		f.CountUp(i, m)
		if f.mw != nil {
			f.mw.Up(i, m, deliver)
			return
		}
		deliver(m)
	}
}

// BindCoord registers the coordinator's transport delivery hook (carry one
// message to one site) and an optional flush hook, which ReleaseDown calls
// after a release (sends the coordinator emits while DeliverUp runs are
// flushed by the transport at its own batch edge). Bind before the first
// arrival.
func (f *Fabric) BindCoord(deliver func(to int, m proto.Message), flush func()) {
	f.coordFlush = flush
	// One bound closure per destination, so the middleware path doesn't
	// allocate a fresh capture per send.
	f.coordDeliverTo = make([]func(m proto.Message), len(f.p.Sites))
	for to := range f.coordDeliverTo {
		to := to
		f.coordDeliverTo[to] = func(m proto.Message) { deliver(to, m) }
	}
	f.coordSend = func(to int, m proto.Message) {
		f.CountDown(to, m)
		if f.mw != nil {
			f.mw.Down(to, m, f.coordDeliverTo[to])
			return
		}
		deliver(to, m)
	}
	f.coordCast = func(m proto.Message) {
		f.CountBroadcast()
		for s := range f.p.Sites {
			f.coordSend(s, m)
		}
	}
}

// SetMiddleware installs the fault-injection middleware and hooks it into
// the quiescence barrier. Install before the first arrival; a nil
// middleware restores direct delivery.
func (f *Fabric) SetMiddleware(mw Middleware) {
	f.mw = mw
	if mw == nil {
		f.Inflight.SetOnIdle(nil)
		return
	}
	f.Inflight.SetOnIdle(mw.Release)
}

// Middleware returns the installed fault middleware (nil when none).
func (f *Fabric) Middleware() Middleware { return f.mw }

// ChargeUp adds fault-layer overhead traffic — duplicates the receiver
// discarded, retransmissions of lost frames — to the site->coordinator
// ledger without delivering anything.
func (f *Fabric) ChargeUp(msgs, words int64) {
	atomic.AddInt64(&f.messagesUp, msgs)
	atomic.AddInt64(&f.wordsUp, words)
}

// ChargeDown is ChargeUp for the coordinator->site direction.
func (f *Fabric) ChargeDown(msgs, words int64) {
	atomic.AddInt64(&f.messagesDown, msgs)
	atomic.AddInt64(&f.wordsDown, words)
}

// ReleaseUp hands a held site->coordinator message back to the transport:
// site from's delivery hook carries it, under the site's mutex, and the
// site's flush hook puts it on the wire. Cost is not re-counted (the
// original send was charged) and no token is added: the caller must have
// unparked the message's token, which retires when the coordinator handles
// the message. Runs on the settling goroutine at a no-active-work instant
// (the barrier's idle hook), so nothing the released message's cascade
// sends can overtake it on its link.
func (f *Fabric) ReleaseUp(from int, m proto.Message) {
	mu := &f.siteMu[from]
	mu.Lock()
	f.siteDeliver[from](m)
	if fl := f.siteFlush[from]; fl != nil {
		fl()
	}
	mu.Unlock()
}

// ReleaseDown hands a held coordinator->site message back to the transport
// (see ReleaseUp). No delivery runs at that instant, so the coordinator's
// delivery and flush hooks are called on the settling goroutine directly —
// where every transport runs them anyway.
func (f *Fabric) ReleaseDown(to int, m proto.Message) {
	f.coordDeliverTo[to](m)
	if f.coordFlush != nil {
		f.coordFlush()
	}
}

// Arrivals returns the number of arrivals injected so far (the fault
// plan's clock).
func (f *Fabric) Arrivals() int64 { return atomic.LoadInt64(&f.arrivals) }

// Closed reports whether Shutdown has run: the transport's delivery is
// gone, so held traffic can no longer be released (the middleware must stop
// releasing, or the re-injected tokens would never retire and Quiesce would
// hang).
func (f *Fabric) Closed() bool { return f.closed.Load() }

// CountUp brackets one site->coordinator message: in-flight token, ledger,
// tap. The transport delivers the message after calling it.
func (f *Fabric) CountUp(from int, m proto.Message) {
	f.Inflight.Add(1)
	atomic.AddInt64(&f.messagesUp, 1)
	atomic.AddInt64(&f.wordsUp, int64(m.Words()))
	if f.tap != nil {
		f.tap.Up(from, m)
	}
}

// CountDown brackets one coordinator->site message.
func (f *Fabric) CountDown(to int, m proto.Message) {
	f.Inflight.Add(1)
	atomic.AddInt64(&f.messagesDown, 1)
	atomic.AddInt64(&f.wordsDown, int64(m.Words()))
	if f.tap != nil {
		f.tap.Down(to, m)
	}
}

// CountBroadcast records one broadcast operation (the per-site sends are
// still counted individually via CountDown).
func (f *Fabric) CountBroadcast() {
	atomic.AddInt64(&f.broadcasts, 1)
}

// inject runs site machine work on the injecting goroutine under the
// site's mutex, flushing the transport's pending frames before the lock is
// released so the cascade the work triggered is actually on the wire when
// the barrier starts settling it.
func (f *Fabric) inject(site int, work func(out func(proto.Message)) int64) int64 {
	mu := &f.siteMu[site]
	mu.Lock()
	n := work(f.siteOut[site])
	if fl := f.siteFlush[site]; fl != nil {
		fl()
	}
	mu.Unlock()
	return n
}

// Arrive implements Transport: it injects one element at site — running the
// site machine inline on the calling goroutine (the zero-hop fast path) —
// and blocks until the whole system is quiescent again, matching the
// paper's model where no element arrives while messages are outstanding.
// Under fault middleware, "quiescent" means as quiet as the fault plan
// allows: frames delayed across arrivals or trapped behind a partition stay
// in flight inside the fault layer (Settle(false)); the full barrier behind
// Quiesce settles them.
func (f *Fabric) Arrive(site int, item int64, value float64) {
	if f.closed.Load() {
		panic("runtime: transport used after Close")
	}
	n := atomic.AddInt64(&f.arrivals, 1)
	f.Inflight.Add(1)
	f.inject(site, func(out func(proto.Message)) int64 {
		f.p.Sites[site].Arrive(item, value, out)
		return 1
	})
	f.Inflight.Done()
	f.Inflight.Settle(false)
	if f.SpaceProbeEvery > 0 && n%int64(f.SpaceProbeEvery) == 0 {
		f.Probe()
	}
}

// ArriveBatch implements Transport: each chunk is absorbed up to the
// site's next message via the proto.BatchSite fast path (inline, like
// Arrive), then the resulting cascade runs to quiescence before the rest of
// the run is fed — so round broadcasts land between arrivals exactly as
// they would element-at-a-time.
func (f *Fabric) ArriveBatch(site int, item int64, value float64, count int64) {
	if f.closed.Load() {
		panic("runtime: transport used after Close")
	}
	every := int64(f.SpaceProbeEvery)
	s := f.p.Sites[site]
	for count > 0 {
		f.Inflight.Add(1)
		consumed := f.inject(site, func(out func(proto.Message)) int64 {
			return proto.ArriveChunk(s, item, value, count, out)
		})
		f.Inflight.Done()
		f.Inflight.Settle(false)
		n := atomic.AddInt64(&f.arrivals, consumed)
		count -= consumed
		if every > 0 && n%every < consumed {
			f.Probe()
		}
	}
}

// DeliverDown hands coordinator->site message m to site to's machine
// under the site's mutex and retires m's token. What the site sends in
// reply is buffered by its BindSite hook; the transport flushes it at its
// batch edge.
func (f *Fabric) DeliverDown(to int, m proto.Message) {
	mu := &f.siteMu[to]
	mu.Lock()
	f.p.Sites[to].Receive(m, f.siteOut[to])
	mu.Unlock()
	f.Inflight.Done()
}

// DeliverUp hands site->coordinator message m to the coordinator — after
// the write-ahead hook, when one is installed — and retires m's token. Sends
// and broadcasts are bracketed with CountDown/CountBroadcast and routed
// through the BindCoord hook; the transport flushes them at its batch edge.
// Calls must not overlap: the coordinator machine has no lock of its own.
func (f *Fabric) DeliverUp(from int, m proto.Message) {
	if f.coordLog != nil {
		f.coordLog(from, m)
	}
	f.p.Coord.Receive(from, m, f.coordSend, f.coordCast)
	f.Inflight.Done()
}

// Quiesce implements Transport: the full barrier. Under fault middleware it
// also settles delayed traffic that has not yet come due — a query forces
// the reliability layer to deliver everything it can — while traffic held
// behind a live partition stays in flight (the degraded view a partition
// inflicts).
func (f *Fabric) Quiesce() { f.Inflight.Settle(true) }

// Probe implements Transport. The fabric must be quiescent: the in-flight
// barrier then orders this read after every handler that touched protocol
// state, so it is race-free even though the machines live on other
// goroutines.
func (f *Fabric) Probe() {
	for _, s := range f.p.Sites {
		if w := s.SpaceWords(); w > f.maxSiteSpace {
			f.maxSiteSpace = w
		}
	}
	if w := f.p.Coord.SpaceWords(); w > f.maxCoordSpace {
		f.maxCoordSpace = w
	}
}

// SetTap implements Transport: tap observes every message at send time
// (per-link order matches delivery order; different links may call it
// concurrently). Install before the first arrival.
func (f *Fabric) SetTap(t Tap) { f.tap = t }

// SetCoordLog installs the durability layer's write-ahead hook: fn runs in
// DeliverUp for every coordinator-bound protocol message, just before the
// coordinator applies it. Install before the first arrival; a nil fn
// removes it.
func (f *Fabric) SetCoordLog(fn func(from int, m proto.Message)) { f.coordLog = fn }

// SeedLedger pre-loads the cost ledger — a replacement fabric mounted
// after a coordinator crash carries the crashed run's counters forward, so
// Metrics span the whole logical run. Call before the first arrival.
func (f *Fabric) SeedLedger(m Metrics) {
	atomic.StoreInt64(&f.messagesUp, m.MessagesUp)
	atomic.StoreInt64(&f.messagesDown, m.MessagesDown)
	atomic.StoreInt64(&f.wordsUp, m.WordsUp)
	atomic.StoreInt64(&f.wordsDown, m.WordsDown)
	atomic.StoreInt64(&f.broadcasts, m.Broadcasts)
	atomic.StoreInt64(&f.arrivals, m.Arrivals)
	f.maxSiteSpace = m.MaxSiteSpace
	f.maxCoordSpace = m.MaxCoordSpace
}

// Metrics implements Transport. Call after Quiesce for a consistent view.
func (f *Fabric) Metrics() Metrics {
	live := len(f.p.Sites)
	if f.mw != nil {
		live = f.mw.LiveSites()
	}
	return Metrics{
		MessagesUp:    atomic.LoadInt64(&f.messagesUp),
		MessagesDown:  atomic.LoadInt64(&f.messagesDown),
		WordsUp:       atomic.LoadInt64(&f.wordsUp),
		WordsDown:     atomic.LoadInt64(&f.wordsDown),
		Broadcasts:    atomic.LoadInt64(&f.broadcasts),
		Arrivals:      atomic.LoadInt64(&f.arrivals),
		MaxSiteSpace:  f.maxSiteSpace,
		MaxCoordSpace: f.maxCoordSpace,
		LiveSites:     live,
	}
}

// Shutdown marks the fabric closed, so later injections panic instead of
// hanging on in-flight accounting nothing will ever retire, and the fault
// middleware stops releasing. Transports call it first in Close.
func (f *Fabric) Shutdown() { f.closed.Store(true) }
