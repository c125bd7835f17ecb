package mte4jni

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mte4jni/internal/report"
)

func TestSchemeNamesAndHelpers(t *testing.T) {
	if len(Schemes()) != 4 {
		t.Fatal("four schemes expected")
	}
	if NoProtection.String() != "No protection" || GuardedCopy.String() != "Guarded copy" ||
		MTESync.String() != "MTE4JNI+Sync" || MTEAsync.String() != "MTE4JNI+Async" {
		t.Fatal("scheme names wrong")
	}
	if NoProtection.MTE() || GuardedCopy.MTE() || !MTESync.MTE() || !MTEAsync.MTE() {
		t.Fatal("Scheme.MTE wrong")
	}
}

func TestRuntimeConstruction(t *testing.T) {
	for _, s := range Schemes() {
		rt, err := New(Config{Scheme: s, HeapSize: 4 << 20})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rt.Scheme() != s {
			t.Fatalf("%v: scheme mismatch", s)
		}
		env, err := rt.AttachEnv("main")
		if err != nil {
			t.Fatal(err)
		}
		if s.MTE() && rt.Protector() == nil {
			t.Fatalf("%v: no protector", s)
		}
		if s == GuardedCopy && rt.GuardedChecker() == nil {
			t.Fatal("guarded scheme without guarded checker")
		}
		if s == NoProtection && (rt.Protector() != nil || rt.GuardedChecker() != nil) {
			t.Fatal("no-protection runtime exposes checkers")
		}
		rt.DetachEnv(env)
	}
	if _, err := New(Config{Scheme: Scheme(99)}); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on invalid config")
		}
	}()
	MustNew(Config{Scheme: Scheme(99)})
}

// TestEffectivenessMatrix is the §5.2 acceptance test: the detection
// capabilities of the four schemes must reproduce the paper's qualitative
// results exactly.
func TestEffectivenessMatrix(t *testing.T) {
	m, err := RunEffectiveness()
	if err != nil {
		t.Fatal(err)
	}
	get := func(sc Scenario, s Scheme) Detection {
		for i, scenario := range m.Scenarios {
			if scenario == sc {
				for j, scheme := range m.Schemes {
					if scheme == s {
						return m.Results[i][j]
					}
				}
			}
		}
		t.Fatalf("missing cell %v/%v", sc, s)
		return Detection{}
	}

	// Figure 3/4: the OOB write.
	if d := get(ScenarioOOBWrite, NoProtection); d.Detected {
		t.Fatal("no-protection must miss the OOB write")
	}
	if d := get(ScenarioOOBWrite, GuardedCopy); !d.Detected || d.Where != report.AtRelease {
		t.Fatalf("guarded copy: %+v", d)
	}
	if d := get(ScenarioOOBWrite, MTESync); !d.Detected || d.Where != report.AtFaultingInstruction {
		t.Fatalf("MTE sync: %+v", d)
	}
	if d := get(ScenarioOOBWrite, MTEAsync); !d.Detected || d.Where != report.AtNextSyscall {
		t.Fatalf("MTE async: %+v", d)
	}

	// §2.3 limitation 1: reads.
	if d := get(ScenarioOOBRead, GuardedCopy); d.Detected {
		t.Fatal("guarded copy cannot detect OOB reads")
	}
	if d := get(ScenarioOOBRead, MTESync); !d.Detected {
		t.Fatal("MTE sync must detect OOB reads")
	}
	if d := get(ScenarioOOBRead, MTEAsync); !d.Detected {
		t.Fatal("MTE async must detect OOB reads")
	}

	// §2.3 limitation 2: far writes skipping the red zones.
	if d := get(ScenarioFarOOBWrite, GuardedCopy); d.Detected {
		t.Fatal("guarded copy cannot detect far OOB writes")
	}
	if d := get(ScenarioFarOOBWrite, MTESync); !d.Detected {
		t.Fatal("MTE sync must detect far OOB writes")
	}

	// Temporal: use after release.
	if d := get(ScenarioUseAfterRelease, GuardedCopy); d.Detected {
		t.Fatal("guarded copy cannot detect use-after-release")
	}
	if d := get(ScenarioUseAfterRelease, MTESync); !d.Detected {
		t.Fatal("MTE sync must detect use-after-release")
	}

	// The crash reports must look like Figure 4's logcat output.
	syncRep := get(ScenarioOOBWrite, MTESync).Report
	for _, want := range []string{"SEGV_MTESERR", "backtrace:", "#00 pc", "test_ofb"} {
		if !strings.Contains(syncRep, want) {
			t.Fatalf("sync report missing %q:\n%s", want, syncRep)
		}
	}
	asyncRep := get(ScenarioOOBWrite, MTEAsync).Report
	for _, want := range []string{"SEGV_MTEAERR", "getuid"} {
		if !strings.Contains(asyncRep, want) {
			t.Fatalf("async report missing %q:\n%s", want, asyncRep)
		}
	}
	guardedRep := get(ScenarioOOBWrite, GuardedCopy).Report
	for _, want := range []string{"SIGABRT", "abort", "Runtime::Abort"} {
		if !strings.Contains(guardedRep, want) {
			t.Fatalf("guarded report missing %q:\n%s", want, guardedRep)
		}
	}
	if s := m.Summary(); !strings.Contains(s, "DETECTED") || !strings.Contains(s, "missed") {
		t.Fatalf("summary rendering:\n%s", s)
	}
}

// TestFig5Shape checks the qualitative claims of §5.3.1 on a reduced sweep:
// guarded copy is the most expensive scheme at every length, and its
// slowdown shrinks as arrays grow.
func TestFig5Shape(t *testing.T) {
	res, err := RunFig5(Fig5Options{MinPow: 2, MaxPow: 9, Warmup: 2, Reps: 9, InnerIters: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Average across the sweep is the paper's headline comparison (26.58x
	// vs 2.36x vs 2.24x); per-length numbers are too noisy for CI-grade
	// assertions, so assert on the averages with slack.
	g := res.Average[GuardedCopy]
	if g < res.Average[MTESync]*0.9 || g < res.Average[MTEAsync]*0.9 {
		t.Errorf("guarded copy average (%.2fx) not the most expensive (sync %.2fx async %.2fx)",
			g, res.Average[MTESync], res.Average[MTEAsync])
	}
	if g < 1.5 {
		t.Errorf("guarded copy average %.2fx implausibly low", g)
	}
	if fig := res.Figure().String(); !strings.Contains(fig, "Guarded copy") {
		t.Fatalf("figure rendering:\n%s", fig)
	}
}

// TestFig6Shape checks §5.3.2's qualitative claims on a reduced
// configuration: guarded copy is by far the slowest, and the global lock
// contends far more than two-tier locking in the different-arrays test.
func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(Fig6Options{Threads: 8, Iters: 400, ArrayLen: 1024, Reps: 3, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx := func(name string) int {
		for i, v := range res.Variants {
			if v.Display == name {
				return i
			}
		}
		t.Fatalf("variant %q missing", name)
		return -1
	}
	for _, test := range []struct {
		name   string
		ratios []float64
	}{{"same", res.SameArray}, {"different", res.DifferentArrays}} {
		guarded := test.ratios[idx("Guarded Copy")]
		twoTier := test.ratios[idx("MTE4JNI+Sync")]
		if guarded < twoTier*0.9 {
			t.Errorf("%s: guarded copy (%.2fx) faster than MTE4JNI (%.2fx)", test.name, guarded, twoTier)
		}
		if guarded < 1.5 {
			t.Errorf("%s: guarded copy only %.2fx", test.name, guarded)
		}
	}
	// In the different-arrays test the global lock serializes threads that
	// two-tier locking keeps apart (the paper's 2.20x vs 1.21x gap). The
	// contended table-lock counts show that directly; wall-clock time does
	// not, since each iteration's simulated work dwarfs the lock hold.
	if runtime.GOMAXPROCS(0) >= 2 {
		gl, tt := fig6Contention(t, Fig6Options{Threads: 8, Iters: 400, ArrayLen: 1024})
		if gl < 10*tt {
			t.Errorf("different arrays: global lock had %d contended table acquisitions, two-tier %d; want >= 10x", gl, tt)
		}
	}
	if len(res.SameArrayContention) != len(res.Variants) {
		t.Fatalf("contention stats missing: %d entries for %d variants",
			len(res.SameArrayContention), len(res.Variants))
	}
	if tab := res.ContentionTable().String(); !strings.Contains(tab, "MTE4JNI+Sync") {
		t.Fatalf("contention table rendering:\n%s", tab)
	}
	if fig := res.Figure().String(); !strings.Contains(fig, "Same Array") {
		t.Fatalf("figure rendering:\n%s", fig)
	}
}

// fig6Contention runs the different-arrays test under MTE4JNI+Sync with the
// global lock and with two-tier locking, alternately on one setup each,
// until the global lock has recorded 100 contended table acquisitions, and
// returns both schemes' totals. Threads collide on a lock only while two
// run at once: GOMAXPROCS >= 2 permits that, but a busy host (go test ./...
// runs packages side by side) grants it only now and then, so a fixed
// number of runs can record almost nothing. The test fails if a minute
// passes first.
func fig6Contention(t *testing.T, o Fig6Options) (global, twoTier int64) {
	t.Helper()
	var setups [2]*fig6Setup
	for i, locking := range []Locking{GlobalLocking, TwoTierLocking} {
		s, err := newFig6Setup(Fig6Variant{Display: locking.String(), Scheme: MTESync, Locking: locking}, false, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		setups[i] = s
	}
	deadline := time.Now().Add(time.Minute)
	for setups[0].contention().Table < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("global lock recorded only %d contended table acquisitions in a minute", setups[0].contention().Table)
		}
		for _, s := range setups {
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return setups[0].contention().Table, setups[1].contention().Table
}

// TestGeekbenchSmall runs a three-workload slice of the suite end to end,
// including the paper's intensive exceptions, checking ratios are sane
// (0 < ratio <= ~1.2). Each time is the median of 15 runs of tens of
// microseconds: with 3, a GC cycle or a lost time slice in two runs of one
// scheme pushed a ratio out of the band about once in fifty test runs on a
// busy 2-vCPU host.
func TestGeekbenchSmall(t *testing.T) {
	res, err := RunGeekbench(GeekbenchOptions{
		Cores: 1, Scale: ScaleSmall, Reps: 15, Warmup: 2,
		Only: []string{"File Compression", "Clang", "Ray Tracer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// At test scale the runs are microseconds long, so ratios are noisy;
	// only assert they are in a sane band (the benchmark-scale run in
	// bench_test.go is where the paper's percentages are reproduced).
	for _, s := range []Scheme{GuardedCopy, MTESync, MTEAsync} {
		for i, r := range res.Ratios[s] {
			if r <= 0.05 || r > 3 {
				t.Errorf("%v %s ratio %.2f out of range", s, res.Workloads[i], r)
			}
		}
	}
	if fig := res.Figure().String(); !strings.Contains(fig, "Clang") {
		t.Fatalf("figure rendering:\n%s", fig)
	}
}

func TestAlignmentGranuleSharing(t *testing.T) {
	res, err := RunAlignmentAblation([]int{1, 4, 8, 12, 16, 24, 33})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedByAlignment[16] != 0 {
		t.Fatalf("16-byte alignment missed %d adjacent OOB writes; must miss none", res.MissedByAlignment[16])
	}
	if res.MissedByAlignment[8] == 0 {
		t.Fatal("8-byte alignment missed nothing; the §4.1 hazard should appear")
	}
	if tab := res.Table().String(); !strings.Contains(tab, "MISSED") {
		t.Fatalf("table rendering:\n%s", tab)
	}
}

func TestTagCollisionProbability(t *testing.T) {
	res, err := RunTagCollisionAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.MissedRandom) / float64(res.Trials)
	// Expected 1/15 ≈ 6.7%; allow generous sampling slack.
	if rate < 0.02 || rate > 0.13 {
		t.Errorf("random-tag collision rate %.3f, expected ≈0.067", rate)
	}
	if res.MissedExcluding != 0 {
		t.Errorf("neighbour exclusion missed %d writes, want 0", res.MissedExcluding)
	}
	if tab := res.Table().String(); !strings.Contains(tab, "random") {
		t.Fatalf("table rendering:\n%s", tab)
	}
}

func TestHashTableAblationRuns(t *testing.T) {
	res, err := RunHashTableAblation([]int{1, 16}, Fig6Options{Threads: 8, Iters: 200, ArrayLen: 256, Reps: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 2 || res.Durations[0] <= 0 {
		t.Fatalf("durations: %v", res.Durations)
	}
	if tab := res.Table().String(); !strings.Contains(tab, "k") {
		t.Fatalf("table rendering:\n%s", tab)
	}
}

// TestGCConcurrentScanUnderMTE4JNI is the §3.3 end-to-end check through the
// public API: with thread-level TCO control the GC can scan while native
// code holds tagged pointers; with naive process-level MTE it faults.
func TestGCConcurrentScanUnderMTE4JNI(t *testing.T) {
	for _, processLevel := range []bool{false, true} {
		rt, err := New(Config{Scheme: MTESync, ProcessLevelMTE: processLevel, HeapSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		env, err := rt.AttachEnv("main")
		if err != nil {
			t.Fatal(err)
		}
		arr, err := env.NewIntArray(1024)
		if err != nil {
			t.Fatal(err)
		}
		gcThread, err := rt.VM().NewGCThread()
		if err != nil {
			t.Fatal(err)
		}

		var scanFault error
		fault, err := env.CallNative("holdPointer", Regular, func(e *Env) error {
			p, err := e.GetPrimitiveArrayCritical(arr)
			if err != nil {
				return err
			}
			// GC scans while the native thread holds the tagged pointer.
			if f, _ := rt.VM().ConcurrentScan(gcThread.Ctx()); f != nil {
				scanFault = f
			}
			return e.ReleasePrimitiveArrayCritical(arr, p, ReleaseDefault)
		})
		if fault != nil || err != nil {
			t.Fatalf("processLevel=%v: native call failed: %v %v", processLevel, fault, err)
		}
		if processLevel && scanFault == nil {
			t.Fatal("process-level MTE: GC scan must fault on tagged memory")
		}
		if !processLevel && scanFault != nil {
			t.Fatalf("thread-level MTE: GC scan faulted: %v", scanFault)
		}
	}
}
