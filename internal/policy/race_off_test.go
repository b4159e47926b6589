//go:build !race

package policy_test

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
