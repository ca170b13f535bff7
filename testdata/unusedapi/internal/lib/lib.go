// Package lib is the lint fixture's library: each declaration is a case
// TestUnusedAPIFixture expects the lint to flag or to exempt.
package lib

// Used has a caller in cmd/app.
func Used() int { return 1 }

// Unused has no caller: flagged.
func Unused() {}

// Box is built by cmd/app.
type Box struct {
	N     int
	Limit int    // read by Get, set only by a test: flagged as never set
	Tag   string `json:"tag"` // read but never set: exempt, a decoder sets it
}

// Get is called by cmd/app.
func (b *Box) Get() int {
	if b.N > b.Limit {
		return b.Limit
	}
	return b.N
}

// Drop has no caller: flagged.
func (b *Box) Drop() {}

// Stack is generic; cmd/app uses Stack[int].
type Stack[T any] struct{ items []T }

// Push is reached only through an instantiation: not flagged.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Len is reached only through an instantiation: not flagged.
func (s *Stack[T]) Len() int { return len(s.items) }

type quiet struct{}

// Announce is reached only through an interface literal in cmd/app: not
// flagged.
func (quiet) Announce() string { return "quiet" }

// Quiet returns a value whose method set cmd/app asserts.
func Quiet() any { return quiet{} }

// Pair is only ever written as an unkeyed literal, so every field counts
// as set: not flagged.
type Pair struct{ A, B int }

// Opts holds a compat field, Legacy, that benchapi.go lists.
type Opts struct {
	Size   int
	Legacy bool
}

// Grow reads Legacy: product code naming a listed compat field.
func (o Opts) Grow() int {
	if o.Legacy {
		return 0
	}
	return o.Size
}
