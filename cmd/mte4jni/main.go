// Command mte4jni regenerates every table and figure of the MTE4JNI paper's
// evaluation (CGO '25) on the simulated substrate, plus the ablations
// described in DESIGN.md.
//
// Usage:
//
//	mte4jni effect                  # §5.2 / Figures 3-4: detection matrix + crash reports
//	mte4jni fig5 [-minpow -maxpow]  # §5.3.1: single-thread JNI overhead sweep
//	mte4jni fig6 [-threads -iters]  # §5.3.2: multi-thread locking comparison
//	mte4jni geekbench [-cores N]    # §5.4 / Figures 7-8: workload suite
//	mte4jni table1                  # Table 1: the protected JNI surface
//	mte4jni table2                  # Table 2: environment configuration
//	mte4jni ablate-align            # Extra A: §4.1 alignment hazard
//	mte4jni ablate-k                # Extra B: hash-table count sweep
//	mte4jni ablate-tags             # Extra C: tag collision probability
//	mte4jni lint file.json...       # static analysis of bytecode programs
//	mte4jni bench -parse out.txt    # go-test bench text -> snapshot JSON (BENCH_*.json)
//	mte4jni serve                   # multi-tenant serving daemon (HTTP/JSON)
//	mte4jni load                    # concurrent load generator against serve
//	mte4jni redteam                 # offline adversarial campaign (JSON coverage report)
//	mte4jni all                     # everything above, in order
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mte4jni"
)

// emitJSON pretty-prints v for machine consumption.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "effect":
		err = runEffect(args)
	case "fig5":
		err = runFig5(args)
	case "fig6":
		err = runFig6(args)
	case "geekbench":
		err = runGeekbench(args)
	case "table1":
		err = runTable1(args)
	case "table2":
		err = runTable2(args)
	case "ablate-align":
		err = runAblateAlign(args)
	case "ablate-k":
		err = runAblateK(args)
	case "ablate-tags":
		err = runAblateTags(args)
	case "lint":
		err = runLint(args)
	case "bench":
		err = runBench(args)
	case "serve":
		err = runServe(args)
	case "load":
		err = runLoad(args)
	case "redteam":
		err = runRedteam(args)
	case "all":
		err = runAll()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mte4jni: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mte4jni:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mte4jni — reproduce the tables and figures of the MTE4JNI paper (CGO '25)

commands:
  effect         §5.2 effectiveness matrix with Figure 4-style crash reports
  fig5           §5.3.1 single-thread JNI overhead (normalized, 2^1..2^12 ints)
  fig6           §5.3.2 multi-thread locking comparison (same/different arrays)
  geekbench      §5.4 GeekBench-style suite (Figure 7 with -cores 1, Figure 8 with -cores N)
  table1         Table 1: JNI interfaces returning raw pointers
  table2         Table 2: experimental environment configuration
  ablate-align   DESIGN.md Extra A: §4.1 heap-alignment hazard
  ablate-k       DESIGN.md Extra B: hash-table count sweep
  ablate-tags    DESIGN.md Extra C: 4-bit tag collision probability
  lint           static analysis of bytecode program files (-disasm, -dynamic)
  bench          benchmark snapshots from go test -bench text (-parse benchtext, -combine a b, -diff a b)
  serve          multi-tenant serving daemon: session pool behind an HTTP/JSON API
  load           concurrent load generator for serve (-n, -c, -fault-every, -attack-rate)
  redteam        offline adversarial campaign: attack corpus x schemes -> JSON coverage report
  all            run everything with default settings`)
}

// runEffect prints the detection matrix and, optionally, the full crash
// reports behind it.
func runEffect(args []string) error {
	fs := flag.NewFlagSet("effect", flag.ExitOnError)
	reports := fs.Bool("reports", true, "print the logcat-style crash reports (Figure 4)")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	fs.Parse(args)

	m, err := mte4jni.RunEffectiveness()
	if err != nil {
		return err
	}
	if *asJSON {
		return emitJSON(m)
	}
	fmt.Println(m.Summary())
	if !*reports {
		return nil
	}
	// Figure 4 proper: the three reports for the OOB write scenario.
	for i, sc := range m.Scenarios {
		if sc != mte4jni.ScenarioOOBWrite {
			continue
		}
		for j, scheme := range m.Schemes {
			d := m.Results[i][j]
			if !d.Detected {
				continue
			}
			fmt.Printf("--- Figure 4 crash report under %s (%s) ---\n%s\n", scheme, d.Where, d.Report)
		}
	}
	return nil
}

func runFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	minPow := fs.Int("minpow", 1, "smallest array length exponent")
	maxPow := fs.Int("maxpow", 12, "largest array length exponent")
	reps := fs.Int("reps", 11, "timing repetitions (median reported)")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	fs.Parse(args)

	res, err := mte4jni.RunFig5(mte4jni.Fig5Options{MinPow: *minPow, MaxPow: *maxPow, Reps: *reps})
	if err != nil {
		return err
	}
	if *asJSON {
		return emitJSON(res)
	}
	fmt.Println(res.Figure())
	fmt.Printf("average slowdown: guarded copy %.2fx, MTE4JNI+Sync %.2fx, MTE4JNI+Async %.2fx\n",
		res.Average[mte4jni.GuardedCopy], res.Average[mte4jni.MTESync], res.Average[mte4jni.MTEAsync])
	fmt.Println("(paper, on-device: 26.58x, 2.36x, 2.24x)")
	return nil
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	threads := fs.Int("threads", 64, "concurrent native threads")
	iters := fs.Int("iters", 10000, "acquire/read/release iterations per thread")
	arrayLen := fs.Int("arraylen", 1024, "array length in ints")
	reps := fs.Int("reps", 5, "timing repetitions (median reported)")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	fs.Parse(args)

	res, err := mte4jni.RunFig6(mte4jni.Fig6Options{
		Threads: *threads, Iters: *iters, ArrayLen: *arrayLen, Reps: *reps,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		return emitJSON(res)
	}
	fmt.Println(res.Figure())
	fmt.Println(res.ContentionTable())
	fmt.Println("(paper, on-device, same array: two-tier 1.21x, global 1.39x, guarded 32.9x;")
	fmt.Println(" different arrays: two-tier 1.21x, global 2.20x, guarded 34.0x)")
	return nil
}

func runGeekbench(args []string) error {
	fs := flag.NewFlagSet("geekbench", flag.ExitOnError)
	cores := fs.Int("cores", 1, "concurrent copies per workload (1 = Figure 7, NumCPU = Figure 8)")
	reps := fs.Int("reps", 5, "timing repetitions (median reported)")
	small := fs.Bool("small", false, "use the small (test-sized) workload scale")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	fs.Parse(args)

	scale := mte4jni.ScaleDefault
	if *small {
		scale = mte4jni.ScaleSmall
	}
	if *cores < 1 {
		*cores = mte4jni.NumCores()
	}
	res, err := mte4jni.RunGeekbench(mte4jni.GeekbenchOptions{Cores: *cores, Scale: scale, Reps: *reps})
	if err != nil {
		return err
	}
	if *asJSON {
		return emitJSON(res)
	}
	fmt.Println(res.Figure())
	fmt.Printf("overall degradation (geomean): guarded copy %.2f%%, MTE4JNI+Sync %.2f%%, MTE4JNI+Async %.2f%%\n",
		res.Degradation[mte4jni.GuardedCopy], res.Degradation[mte4jni.MTESync], res.Degradation[mte4jni.MTEAsync])
	if *cores == 1 {
		fmt.Println("(paper, on-device single-core: 5.90%, 5.33%, 1.13%)")
	} else {
		fmt.Println("(paper, on-device multi-core: 13.50%, 5.12%, 1.55%)")
	}
	return nil
}

func runAblateAlign(args []string) error {
	res, err := mte4jni.RunAlignmentAblation(nil)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	fmt.Printf("missed adjacent-object OOB writes: align 8 -> %d, align 16 -> %d (of %d sizes)\n",
		res.MissedByAlignment[8], res.MissedByAlignment[16], len(res.Sizes))
	return nil
}

func runAblateK(args []string) error {
	fs := flag.NewFlagSet("ablate-k", flag.ExitOnError)
	threads := fs.Int("threads", 64, "concurrent native threads")
	iters := fs.Int("iters", 2000, "iterations per thread")
	fs.Parse(args)

	res, err := mte4jni.RunHashTableAblation(nil, mte4jni.Fig6Options{
		Threads: *threads, Iters: *iters, ArrayLen: 1024, Reps: 3,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runAblateTags(args []string) error {
	fs := flag.NewFlagSet("ablate-tags", flag.ExitOnError)
	trials := fs.Int("trials", 1500, "adjacent pairs per configuration")
	fs.Parse(args)

	res, err := mte4jni.RunTagCollisionAblation(*trials)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runAll() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"table2", func() error { return runTable2(nil) }},
		{"table1", func() error { return runTable1(nil) }},
		{"effect", func() error { return runEffect([]string{"-reports=true"}) }},
		{"fig5", func() error { return runFig5(nil) }},
		{"fig6", func() error { return runFig6([]string{"-threads", "64", "-iters", "2000"}) }},
		{"geekbench (fig7)", func() error { return runGeekbench([]string{"-cores", "1"}) }},
		{"geekbench (fig8)", func() error { return runGeekbench([]string{"-cores", "0"}) }},
		{"ablate-align", func() error { return runAblateAlign(nil) }},
		{"ablate-k", func() error { return runAblateK([]string{"-threads", "16", "-iters", "1000"}) }},
		{"ablate-tags", func() error { return runAblateTags(nil) }},
	}
	for _, s := range steps {
		fmt.Printf("\n================ %s ================\n\n", s.name)
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
