// Package nopfs seeds a clock-scope violation for the fixture tests: the
// live job reads time only through internal/clock, like internal/storage.
package nopfs

import "time"

// Stall times a wait on the wall clock directly.
func Stall(wait func()) time.Duration {
	start := time.Now()
	wait()
	return start.Sub(start.Add(-time.Second))
}
