package storage

import (
	"time"

	"repro/internal/clock"
)

// StampQuiet is the suppressed twin of Stamp: zero findings expected.
func StampQuiet() time.Time {
	//lint:ignore goroutine fixture: proves a reasoned suppression silences the clock-scope finding
	return time.Now()
}

// ElapsedQuiet is the suppressed twin of Elapsed: zero findings expected.
func ElapsedQuiet(start time.Time) time.Duration {
	//lint:ignore goroutine fixture: proves a reasoned suppression silences the clock.Real finding
	return clock.Since(clock.Real, start)
}
