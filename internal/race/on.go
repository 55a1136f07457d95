//go:build race

// Package race tells whether the race detector instruments this build: the
// buffer then poisons recycled frames, and tests skip their heap budgets.
package race

const Enabled = true
