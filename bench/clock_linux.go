package main

import (
	"syscall"
	"time"
)

// sleepOS blocks the calling thread in nanosleep. An idle Go process wakes
// from time.Sleep only at millisecond granularity (the runtime's network
// poller waits in whole milliseconds), which would add about half a
// millisecond of generator lateness to every request; the kernel wakes a
// blocked thread within tens of microseconds.
func sleepOS(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
