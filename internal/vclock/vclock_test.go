package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New(0)
	c.Advance(5 * time.Millisecond)
	c.Advance(250 * time.Microsecond)
	want := Time(5*time.Millisecond + 250*time.Microsecond)
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New(0).Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	c := New(100)
	if got := c.AdvanceTo(50); got != 100 {
		t.Errorf("AdvanceTo(past) = %v, want 100 (unchanged)", got)
	}
	if got := c.AdvanceTo(400); got != 400 {
		t.Errorf("AdvanceTo(future) = %v, want 400", got)
	}
}

func TestReset(t *testing.T) {
	c := New(0)
	c.Advance(time.Second)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset did not rewind clock: %v", c.Now())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1000)
	b := a.Add(500)
	if b != 1500 {
		t.Errorf("Add: got %v", b)
	}
	if d := b.Sub(a); d != 500 {
		t.Errorf("Sub: got %v", d)
	}
	if !a.Before(b) || b.Before(a) {
		t.Error("Before ordering wrong")
	}
}

func TestMax(t *testing.T) {
	if Max(3, 7) != 7 || Max(7, 3) != 7 {
		t.Error("Max wrong")
	}
}

// Property: a clock advanced by any sequence of non-negative durations is
// monotone and ends at the sum of the durations.
func TestAdvanceMonotoneProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := New(0)
		var sum Time
		for _, s := range steps {
			before := c.Now()
			now := c.Advance(Duration(s))
			sum += Time(s)
			if now < before || now != sum {
				return false
			}
		}
		return c.Now() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AdvanceTo never moves the clock backwards.
func TestAdvanceToMonotoneProperty(t *testing.T) {
	f := func(targets []int64) bool {
		c := New(0)
		prev := c.Now()
		for _, tgt := range targets {
			now := c.AdvanceTo(Time(tgt))
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if s := Time(1500000).String(); s != "vt+1.5ms" {
		t.Fatalf("String() = %q", s)
	}
}
