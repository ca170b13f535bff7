//go:build race

package trace

// raceEnabled: see poisonSpan.
const raceEnabled = true
