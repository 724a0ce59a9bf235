//go:build race

package taskselect

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
