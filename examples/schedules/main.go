// Command schedules replays the example schedules from the paper against
// several MVTL policies and prints which policies abort:
//
//   - the serial-abort schedule of §5.3 (clock skew makes timestamp
//     ordering abort even serial executions; ε-clock does not);
//   - the ghost-abort schedule of §5.5 (an aborted transaction's
//     leftover read timestamps kill an innocent one under timestamp
//     ordering; Ghostbuster's garbage collection prevents it);
//   - the Theorem 2 workload (the preferential algorithm commits at an
//     alternative timestamp where timestamp ordering aborts).
package main

import (
	"context"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/policy"
)

// procClock pins a transaction's clock at time t with process id p.
func procClock(t int64, p int32) *clock.Process {
	var m clock.Manual
	m.Set(t)
	return clock.NewProcess(&m, p)
}

func outcome(err error) string {
	if err != nil {
		return "ABORT"
	}
	return "commit"
}

// serialAbort replays §5.3: T2 (clock 20) reads X and commits, then T1
// (clock 10, slower clock) writes X. Returns T1's outcome.
func serialAbort(db *core.DB) string {
	ctx := context.Background()
	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(20, 2))
	if _, err := t2.Read(ctx, "x"); err != nil {
		return "ABORT(read)"
	}
	if err := t2.Commit(ctx); err != nil {
		return "ABORT(T2?)"
	}
	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(10, 1))
	if err := t1.Write(ctx, "x", []byte("v")); err != nil {
		return "ABORT"
	}
	return outcome(t1.Commit(ctx))
}

// ghostAbort replays §5.5 and returns T1's outcome; T1 conflicts only
// with T2, which already aborted.
func ghostAbort(db *core.DB) string {
	ctx := context.Background()
	t3, _ := db.Begin(ctx)
	t3.SetClock(procClock(30, 3))
	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(20, 2))
	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(10, 1))

	_, _ = t3.Read(ctx, "x")
	_ = t3.Commit(ctx)
	_, _ = t2.Read(ctx, "y")
	_ = t2.Write(ctx, "x", []byte("t2"))
	_ = t2.Commit(ctx) // aborts: T3 read X above T2's timestamp
	if err := t1.Write(ctx, "y", []byte("t1")); err != nil {
		return "ABORT"
	}
	return outcome(t1.Commit(ctx))
}

// theorem2 replays W1(Y)C1 R2(X) R3(Y) C3 W2(Y) C2 and returns T2's
// outcome.
func theorem2(db *core.DB) string {
	ctx := context.Background()
	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(100, 1))
	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(200, 2))
	t3, _ := db.Begin(ctx)
	t3.SetClock(procClock(300, 3))

	_ = t1.Write(ctx, "y", []byte("t1"))
	_ = t1.Commit(ctx)
	_, _ = t2.Read(ctx, "x")
	_, _ = t3.Read(ctx, "y")
	_ = t3.Commit(ctx)
	if err := t2.Write(ctx, "y", []byte("t2")); err != nil {
		return "ABORT"
	}
	return outcome(t2.Commit(ctx))
}

// mk returns an empty store governed by the named policy, with ε and
// A(t) sized for the schedules' clocks.
func mk(name string) *core.DB {
	k, err := policy.Parse(name)
	if err != nil {
		panic(err)
	}
	var src clock.Logical
	params := policy.Params{Epsilon: 15, Alternatives: policy.OffsetAlternatives(-150)}
	return core.New(k.New(clock.NewProcess(&src, 0), params), core.Options{})
}

func main() {
	fmt.Println("schedule                       policy              outcome of the victim txn")
	fmt.Println("------------------------------ ------------------- -------------------------")
	for _, p := range []string{"mvtl-to", "mvtl-eps-clock"} {
		fmt.Printf("%-30s %-19s %s\n", "serial abort (§5.3)", p, serialAbort(mk(p)))
	}
	for _, p := range []string{"mvtl-to", "mvtl-ghostbuster"} {
		fmt.Printf("%-30s %-19s %s\n", "ghost abort (§5.5)", p, ghostAbort(mk(p)))
	}
	for _, p := range []string{"mvtl-to", "mvtl-pref"} {
		fmt.Printf("%-30s %-19s %s\n", "Theorem 2 workload", p, theorem2(mk(p)))
	}
	fmt.Println()
	fmt.Println("expected: mvtl-to aborts all three; the specialized policies commit.")
}
