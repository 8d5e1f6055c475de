// Package storage seeds clock-scope violations for the fixture tests: a
// package under internal/storage reads time only through internal/clock and
// makes no sync.Cond.
package storage

import (
	"sync"
	"time"
)

// Stamp reads the wall clock directly.
func Stamp() time.Time {
	return time.Now()
}

// Span uses only time's types and constants, which the rule allows.
func Span(start time.Time) time.Duration {
	return start.Sub(start.Add(-time.Second))
}

// Gate parks on a sync.Cond, which neither a context nor the clock can wake.
func Gate(mu *sync.Mutex) *sync.Cond {
	return sync.NewCond(mu)
}
