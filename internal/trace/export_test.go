package trace

// CountFallbacks has every SortAdaptive that gives up, until the returned
// stop, report its slice's length and the moves it had made.
func CountFallbacks(f func(n, moves int)) (stop func()) {
	sortFallbacks.Store(&f)
	return func() { sortFallbacks.Store(nil) }
}

// SortMoveBudget is the insertion sort's budget, in moves per element.
const SortMoveBudget = sortMoveBudget
