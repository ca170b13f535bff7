// Package testonly is imported only by a test file, so the lint exempts
// its exported names although nothing else calls them.
package testonly

// Three is used by a test only.
const Three = 3

// Helper is used by nothing.
func Helper() {}
