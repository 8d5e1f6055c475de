//go:build race

package nopfs

// raceEnabled reports a -race build.
const raceEnabled = true
