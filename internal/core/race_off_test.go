//go:build !race

package core_test

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
