//go:build !race

package clock

// raceEnabled reports a -race build.
const raceEnabled = false
