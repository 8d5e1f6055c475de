// Package storage seeds a clock-scope violation for the fixture tests: a
// package under internal/storage reads time only through internal/clock.
package storage

import "time"

// Stamp reads the wall clock directly.
func Stamp() time.Time {
	return time.Now()
}

// Span uses only time's types and constants, which the rule allows.
func Span(start time.Time) time.Duration {
	return start.Sub(start.Add(-time.Second))
}
