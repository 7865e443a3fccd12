//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps on a timerfd read through the runtime's network poller.
// The wake is as precise as the kernel's timer (Go's own timers round
// short sleeps up to about a millisecond), and the sleeping goroutine
// holds no scheduler slot (a nanosleep would keep its thread's P until the
// runtime's monitor retakes it, starving the server and the clients that
// share this process).
type waiter struct {
	f  *os.File
	fd uintptr
}

func newWaiter() (*waiter, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	// A non-blocking descriptor makes the File pollable: Read parks the
	// goroutine on the poller instead of blocking its thread.
	return &waiter{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// wait returns once d has passed.
func (w *waiter) wait(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec { it_interval, it_value } with a relative, one-shot value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}

func (w *waiter) close() error { return w.f.Close() }
