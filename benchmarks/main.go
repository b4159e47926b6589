// Command benchmarks is the repository's benchmark: one invocation
// runs one workload in a fresh process and prints, as the last line of
// standard output, one JSON object with the workload's metrics (see
// README.md and ../BENCHMARK.json).
//
//	go run . --workload tcp-point --seed 1 --seconds 15 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "seed of the operation streams")
	seconds := flag.Float64("seconds", baseSeconds, "length the fixed attempt count is sized for")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool) error {
	s, err := specByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	runtime.GOMAXPROCS(maxProcs)
	s = s.scaled(seconds / baseSeconds)
	var res result
	if trace {
		res, err = runTraced(s, seed, os.Stderr)
	} else {
		res, err = runUntraced(s, seed, os.Stderr)
	}
	if err != nil {
		return err
	}
	line, err := res.line()
	if err != nil {
		return err
	}
	_, err = fmt.Println(line)
	return err
}
