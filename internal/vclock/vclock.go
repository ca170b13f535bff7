// Package vclock provides a deterministic virtual clock for the XSP
// simulator. All latencies in the simulated HW/SW stack are expressed in
// virtual nanoseconds so that profiles are exactly reproducible across runs
// and machines: the CPU thread of a simulated inference owns one Clock, and
// each simulated GPU stream owns a timeline whose tail is compared against
// the CPU clock when work is enqueued or synchronized.
package vclock

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately a distinct type from time.Duration so that
// instants and durations cannot be confused.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// String formats the instant as a duration offset from simulation start.
func (t Time) String() string { return fmt.Sprintf("vt+%s", Duration(t)) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at virtual time zero, ready to use. Clock is not safe for concurrent
// use; a simulated CPU thread is single-threaded by construction.
type Clock struct {
	now Time
}

// New returns a clock starting at the given instant.
func New(start Time) *Clock { return &Clock{now: start} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new instant.
// Advancing by a negative duration panics: simulated work cannot take
// negative time, and silently accepting it would corrupt every downstream
// latency computation.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %s", d))
	}
	c.now += Time(d)
	return c.now
}

// AdvanceTo moves the clock forward to instant t. If t is in the past the
// clock is unchanged (a stream that finished earlier than the CPU's current
// time costs the CPU nothing to synchronize with).
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to zero. It is intended for reusing a simulation
// context between independent evaluation runs.
func (c *Clock) Reset() { c.now = 0 }
