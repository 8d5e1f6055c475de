//go:build race

package transport

// raceEnabled reports a -race build.
const raceEnabled = true
