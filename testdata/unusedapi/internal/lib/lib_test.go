package lib

import (
	"testing"

	"fixture/internal/testonly"
)

func TestLimit(t *testing.T) {
	b := Box{N: 5, Limit: testonly.Three}
	if b.Get() != 3 {
		t.Fatal(b.Get())
	}
}
