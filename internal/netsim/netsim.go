// Package netsim runs a tracking protocol as a genuinely concurrent system:
// one goroutine per site, fed by an unbounded mailbox, with the coordinator
// run by the goroutine that settles the quiescence barrier. It preserves
// the paper's instant-communication model by counting in-flight work: an
// element is only injected after the previous cascade has fully quiesced.
// Cluster implements the runtime.Transport seam (the goroutine transport
// behind disttrack.TransportGoroutine); the injection, quiescence,
// accounting, and space-probing machinery is the shared runtime.Fabric, so
// this package only supplies the goroutine message delivery.
//
// The coordinator handles each message before the next element arrives —
// the barrier makes every cascade serial through it — so a goroutine of
// its own would buy no parallelism, only a cross-goroutine wake-up per
// message. Sites send by queueing (from, msg) for the settler, which pumps
// the queue into the coordinator in send order; coordinator sends fan out
// to the site goroutines' mailboxes, so broadcasts are still handled by k
// goroutines concurrently.
//
// The protocols themselves are the same passive state machines that
// internal/sim drives sequentially; netsim exists to demonstrate (and test,
// under -race) that they are real distributed protocols with no hidden
// shared state.
package netsim

import (
	"sync"

	"disttrack/internal/proto"
	"disttrack/internal/runtime"
)

// Metrics is the shared cost ledger of the runtime seam.
type Metrics = runtime.Metrics

// Cluster hosts one protocol concurrently. Create with Start, feed with
// Arrive, synchronize with Quiesce, and Stop when done. The embedded
// Fabric provides Arrive/ArriveBatch/Quiesce/Probe/SetTap/Metrics.
type Cluster struct {
	*runtime.Fabric

	// siteBoxes[i] feeds site i's loop with coordinator messages.
	siteBoxes []*runtime.Mailbox
	wg        sync.WaitGroup

	// up holds site->coordinator messages in send order until the settling
	// goroutine pumps them; spare is the drained buffer swapped back in.
	mu    sync.Mutex
	up    []runtime.FromMsg
	spare []runtime.FromMsg
}

// Start launches the site goroutines for the protocol and returns the
// running cluster.
func Start(p proto.Protocol) *Cluster {
	c := &Cluster{Fabric: runtime.NewFabric(p)}
	c.siteBoxes = make([]*runtime.Mailbox, len(p.Sites))
	for i := range p.Sites {
		i := i
		c.siteBoxes[i] = runtime.NewMailbox()
		// No flush hook: a queued send is already visible to the pump.
		c.BindSite(i, func(m proto.Message) { c.send(i, m) }, nil)
	}
	c.BindCoord(func(to int, m proto.Message) {
		c.siteBoxes[to].Put(m)
	}, nil)
	c.Inflight.SetPump(c.pump, true)
	for i := range p.Sites {
		c.wg.Add(1)
		go c.siteLoop(i)
	}
	return c
}

// send queues site from's message for the coordinator and wakes the
// settler, which may be parked waiting on the site loops.
func (c *Cluster) send(from int, m proto.Message) {
	c.mu.Lock()
	c.up = append(c.up, runtime.FromMsg{From: from, Msg: m})
	c.mu.Unlock()
	c.Inflight.Wake()
}

// pump is the barrier's delivery hook: it takes every queued
// site->coordinator message and runs the coordinator on each, in send
// order. It reports false when nothing is queued.
func (c *Cluster) pump() bool {
	c.mu.Lock()
	batch := c.up
	if len(batch) == 0 {
		c.mu.Unlock()
		return false
	}
	c.up, c.spare = c.spare, nil
	c.mu.Unlock()
	for j, fm := range batch {
		batch[j] = runtime.FromMsg{} // drop the reference for the GC
		c.DeliverUp(fm.From, fm.Msg)
	}
	c.spare = batch[:0]
	return true
}

// siteLoop delivers site i's coordinator messages in mailbox batches (one
// wakeup per run of traffic) until the mailbox closes; arrivals themselves
// are injected inline by Fabric.Arrive.
func (c *Cluster) siteLoop(i int) {
	defer c.wg.Done()
	var batch []any
	for {
		var ok bool
		batch, ok = c.siteBoxes[i].GetBatch(batch[:0])
		if !ok {
			return
		}
		for j, v := range batch {
			batch[j] = nil // drop the reference for the GC
			c.DeliverDown(i, v.(proto.Message))
		}
	}
}

// Stop shuts down all goroutines. The cluster must be quiescent.
func (c *Cluster) Stop() {
	c.Shutdown()
	for _, mb := range c.siteBoxes {
		mb.Close()
	}
	c.wg.Wait()
}

// Close implements runtime.Transport.
func (c *Cluster) Close() { c.Stop() }
