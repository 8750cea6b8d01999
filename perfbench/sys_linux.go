//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t in nanosleep, which wakes within tens of
// microseconds. time.Sleep wakes an otherwise idle process through the
// network poller's millisecond timeout, a median 0.4 ms overshoot that
// would count as request latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: sleep the rest
	}
}

// cpuTime is the CPU time the process has used, all threads, user and
// system. The kernel does not charge it for time the machine's host
// takes the CPU away, which wall time on a shared machine includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
