//go:build race

package mvtl_test

// raceEnabled reports that this binary was built with -race, under
// which allocation counts are instrumented and not meaningful.
const raceEnabled = true
