// Command app is the fixture's caller.
package main

import "fixture/internal/lib"

func main() {
	b := &lib.Box{N: lib.Used()}
	println(b.Get(), b.Tag)

	var s lib.Stack[int]
	s.Push(1)
	println(s.Len())

	if a, ok := lib.Quiet().(interface{ Announce() string }); ok {
		println(a.Announce())
	}

	p := lib.Pair{1, 2}
	println(p.A + p.B)
}
