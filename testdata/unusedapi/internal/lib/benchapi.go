// The fixture's compat API: what only bench/ may call.
//
// A listed field:
//
//	Opts.Legacy  read by lib.go, which is the leak the fixture expects

package lib

// Compat is called by bench/, which may, and by cmd/app, which may not.
func Compat() int { return helper() }

// Orphan is compat that nothing calls, bench/ included: the unused lint
// reports it.
func Orphan() {}

// helper is unexported: product code may call it.
func helper() int { return 2 }
