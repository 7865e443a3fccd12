//go:build !linux

package main

import "time"

// waiter falls back to Go's timers, which round short sleeps up to the
// platform's timer granularity.
type waiter struct{}

func newWaiter() (*waiter, error) { return &waiter{}, nil }

func (w *waiter) wait(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (w *waiter) close() error { return nil }
