//go:build !linux

package main

import "time"

// sleepOS falls back to the runtime timer off Linux; generator lateness is
// reported as loadgen.late_p99_ms either way.
func sleepOS(d time.Duration) { time.Sleep(d) }
