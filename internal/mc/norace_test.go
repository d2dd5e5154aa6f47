//go:build !race

package mc

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
