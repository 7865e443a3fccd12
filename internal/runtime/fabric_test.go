package runtime

import (
	"sync"
	"testing"
)

func TestMailboxManyProducers(t *testing.T) {
	mb := NewMailbox()
	const producers = 8
	const perProducer = 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				mb.Put(i)
			}
		}()
	}
	done := make(chan int)
	go func() {
		got := 0
		for {
			_, ok := mb.Get()
			if !ok {
				done <- got
				return
			}
			got++
		}
	}()
	wg.Wait()
	mb.Close()
	if got := <-done; got != producers*perProducer {
		t.Fatalf("mailbox delivered %d, want %d", got, producers*perProducer)
	}
}

func TestMailboxFIFO(t *testing.T) {
	mb := NewMailbox()
	// Interleave puts and gets so the head-indexed queue exercises both its
	// reset-on-drain and compaction paths.
	next, want := 0, 0
	for round := 0; round < 300; round++ {
		for i := 0; i < 7; i++ {
			mb.Put(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := mb.Get()
			if !ok || v.(int) != want {
				t.Fatalf("got %v (ok=%v), want %d", v, ok, want)
			}
			want++
		}
	}
	mb.Close()
	for {
		v, ok := mb.Get()
		if !ok {
			break
		}
		if v.(int) != want {
			t.Fatalf("drain got %v, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d values, want %d", want, next)
	}
}

// TestSharedPumpWaitsForOtherGoroutines drives a shared pump whose queue a
// second goroutine feeds only once the pump has come up empty: Settle must
// park on the barrier's signal until the append's Wake, not panic on the
// empty pump, and return once every token has retired.
func TestSharedPumpWaitsForOtherGoroutines(t *testing.T) {
	var b Barrier
	b.init()
	var mu sync.Mutex
	queued := 0
	empty := make(chan struct{}, 1)
	b.SetPump(func() bool {
		mu.Lock()
		defer mu.Unlock()
		if queued == 0 {
			select {
			case empty <- struct{}{}:
			default:
			}
			return false
		}
		queued--
		b.Done()
		return true
	}, true)
	const msgs = 3
	b.Add(msgs)
	go func() {
		for i := 0; i < msgs; i++ {
			<-empty
			mu.Lock()
			queued++
			mu.Unlock()
			b.Wake()
		}
	}()
	b.Settle(true)
	if n := b.active.Load(); n != 0 {
		t.Fatalf("Settle returned with %d active tokens", n)
	}
}

// TestSettleAfterPanickedDelivery pins the barrier's behaviour once a
// delivery has panicked out of Settle, leaving its token live: the next
// Settle panics instead of waiting forever on a token nothing will retire.
func TestSettleAfterPanickedDelivery(t *testing.T) {
	for _, shared := range []bool{false, true} {
		var b Barrier
		b.init()
		b.SetPump(func() bool { panic("delivery failed") }, shared)
		b.Add(1)
		settle := func() (p any) {
			defer func() { p = recover() }()
			b.Settle(true)
			return nil
		}
		if p := settle(); p != "delivery failed" {
			t.Fatalf("shared=%v: first Settle recovered %v", shared, p)
		}
		if p := settle(); p == nil || p == "delivery failed" {
			t.Fatalf("shared=%v: second Settle recovered %v, want the barrier's own panic", shared, p)
		}
	}
}
