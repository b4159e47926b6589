//go:build !race

package mvtl_test

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
