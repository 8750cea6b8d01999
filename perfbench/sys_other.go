//go:build !linux

package main

import (
	"runtime/metrics"
	"time"
)

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// cpuTime is the Go runtime's estimate of the CPU time the process has
// used: unlike the Linux version it counts time the host took away.
func cpuTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration((s[0].Value.Float64() - s[1].Value.Float64()) * float64(time.Second))
}
