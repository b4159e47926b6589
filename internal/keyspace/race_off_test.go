//go:build !race

package keyspace

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
