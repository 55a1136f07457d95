//go:build race

package core_test

// raceEnabled reports that the race detector instruments this build: its
// shadow allocations make testing.AllocsPerRun meaningless.
const raceEnabled = true
