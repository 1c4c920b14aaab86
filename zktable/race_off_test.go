//go:build !race

package zktable_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-exactness assertions are skipped under it.
const raceEnabled = false
