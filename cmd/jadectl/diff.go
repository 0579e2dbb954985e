package main

import (
	"flag"
	"fmt"
	"os"

	"jade"
)

// cmdDiff compares two run artifact directories (written with
// -metrics.dir) and prints a deterministic regression verdict. Same-seed
// runs diff clean; a run with a localized slowdown is flagged with the
// responsible tier and latency component. Exits nonzero on regression.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	relTol := fs.Float64("tol", 0, "relative tolerance for budget components and metric series (0 = default 0.05)")
	sloTol := fs.Float64("slo-tol", 0, "absolute SLO compliance drop that flags an objective (0 = default 0.01)")
	benchTol := fs.Float64("bench-tol", 0, "relative tolerance for BENCH_history ns/event entries (0 = default 0.10)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: jadectl diff [-tol X] [-slo-tol X] [-bench-tol X] RUN_DIR_A RUN_DIR_B")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("diff takes exactly two run directories")
	}
	d, err := jade.DiffRuns(fs.Arg(0), fs.Arg(1), jade.RunDiffOptions{
		RelTol: *relTol, SLOTol: *sloTol, BenchTol: *benchTol,
	})
	if err != nil {
		return err
	}
	fmt.Print(d.Render())
	if !d.Clean() {
		return fmt.Errorf("run %s regressed relative to %s (%d findings)",
			fs.Arg(1), fs.Arg(0), len(d.Findings))
	}
	return nil
}
