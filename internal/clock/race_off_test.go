//go:build !race

package clock

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
