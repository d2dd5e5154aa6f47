//go:build race

package mc

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop a share of its Puts at random: pooled
// decoders, simulators and scratch are then rebuilt, and allocation counts
// rise by chance.
const raceEnabled = true
