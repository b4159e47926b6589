//go:build race

package keyspace

// raceEnabled reports that this binary was built with -race, under
// which allocation counts are instrumented and not meaningful.
const raceEnabled = true
