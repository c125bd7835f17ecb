package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mte4jni/internal/bench"
)

// runBench is the benchmark-snapshot subcommand. It only reads benchmark
// output; `go test -bench` is the one runner, and `make bench-snapshot`
// runs it at fixed settings and pipes the result through -parse. Modes:
//
//	mte4jni bench -parse out.txt          # `go test -bench` text -> snapshot JSON on stdout
//	mte4jni bench -parse out.txt -o a.json  # ... to a file
//	mte4jni bench -combine a.json b.json  # pair two snapshots into one diff file
//	mte4jni bench -diff a.json b.json     # compare two snapshots
//	mte4jni bench -diff BENCH_PR2.json    # compare the halves of a combined diff file
//
// -diff doubles as a CI regression gate: it exits nonzero when any
// benchmark slowed by more than -threshold percent (default 10; negative
// disables the gate) or is missing from the after snapshot. It refuses
// snapshots taken on different CPU counts.
//
// Snapshots are the BENCH_*.json files committed at the repo root; see
// README "Benchmark snapshots".
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	note := fs.String("note", "", "free-form note stored in the snapshot")
	out := fs.String("o", "", "write the snapshot JSON to this file instead of stdout")
	parse := fs.String("parse", "", "parse `go test -bench` text output from this file into a snapshot")
	diff := fs.Bool("diff", false, "compare two snapshot files, or the halves of one combined diff file")
	threshold := fs.Float64("threshold", 10, "with -diff, fail (exit nonzero) when any benchmark slows by more than this percentage or goes missing; negative disables the gate")
	combine := fs.Bool("combine", false, "pair two snapshot files into one combined diff file")
	fs.Parse(args)

	if *diff {
		var before, after *bench.Snapshot
		switch fs.NArg() {
		case 1:
			d, err := bench.ReadDiffFile(fs.Arg(0))
			if err != nil {
				return err
			}
			before, after = d.Before, d.After
		case 2:
			var err error
			if before, err = bench.ReadSnapshotFile(fs.Arg(0)); err != nil {
				return err
			}
			if after, err = bench.ReadSnapshotFile(fs.Arg(1)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("bench -diff needs one combined diff file or two snapshot files")
		}
		if err := bench.Comparable(before, after); err != nil {
			return err
		}
		fmt.Print(bench.Compare(before, after))
		if *threshold >= 0 {
			if regs := bench.Regressions(before, after, *threshold); len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "\nbench: %d benchmark(s) regressed beyond %.1f%% or went missing:\n", len(regs), *threshold)
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
				return fmt.Errorf("benchmark regression gate failed (threshold %.1f%%)", *threshold)
			}
		}
		return nil
	}

	if *combine {
		if fs.NArg() != 2 {
			return fmt.Errorf("bench -combine needs exactly two snapshot files (before, after)")
		}
		before, err := bench.ReadSnapshotFile(fs.Arg(0))
		if err != nil {
			return err
		}
		after, err := bench.ReadSnapshotFile(fs.Arg(1))
		if err != nil {
			return err
		}
		return writeOutput(*out, bench.NewDiff(*note, before, after).WriteJSON)
	}

	if *parse == "" {
		return fmt.Errorf("bench needs -parse, -combine or -diff (run `make bench-snapshot` for a fresh snapshot)")
	}
	f, err := os.Open(*parse)
	if err != nil {
		return err
	}
	defer f.Close()
	results, err := bench.ParseGoBench(f)
	if err != nil {
		return err
	}
	snap := bench.NewSnapshot(*note)
	for _, r := range results {
		snap.Add(r)
	}
	return writeOutput(*out, snap.WriteJSON)
}

// writeOutput runs write against the file at path, or stdout when path is
// empty, and reports the file's close error.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
