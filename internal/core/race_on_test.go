//go:build race

package core_test

// raceEnabled reports that the race detector is on: sync.Pool then drops one
// Put in four, so a path through a pooled scratch allocates more, at random.
const raceEnabled = true
