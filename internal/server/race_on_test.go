//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so pooled paths do not hold their allocation budgets.
const raceEnabled = true
