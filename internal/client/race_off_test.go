//go:build !race

package client_test

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
