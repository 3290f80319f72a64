package main

import (
	"errors"
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in the kernel rather than on a Go
// timer: the runtime parks idle timers in epoll with millisecond
// resolution, which made the shipper wake up to a millisecond late at the
// median; a nanosleep wakes it within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			time.Sleep(time.Until(t))
			return
		}
	}
}
