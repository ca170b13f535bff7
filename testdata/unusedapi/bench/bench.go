// Package bench is the fixture's frozen benchmark: it may name compat API.
package bench

import "fixture/internal/lib"

// Run calls the compat API.
func Run() int { return lib.Compat() + lib.Opts{Legacy: true}.Grow() }
