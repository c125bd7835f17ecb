package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture runs the passes over one testdata file under the given
// import path and returns the rendered diagnostics.
func lintFixture(t *testing.T, importPath, fixture string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", fixture), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range runPasses(fset, importPath, []*ast.File{f}) {
		out = append(out, fset.Position(d.pos).String()+": "+d.msg)
	}
	return out
}

// wantDiags asserts the diagnostic list has exactly len(wants) entries and
// that wants[i] is a substring of got[i].
func wantDiags(t *testing.T, got []string, wants ...string) {
	t.Helper()
	if len(got) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(wants), strings.Join(got, "\n"))
	}
	for i, w := range wants {
		if !strings.Contains(got[i], w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, got[i], w)
		}
	}
}

func TestNoinlineFaultPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/mem", "noinline_bad.go")
	wantDiags(t, got, "badFault constructs mte.Fault but is not marked //go:noinline")
	if !strings.Contains(got[0], "noinline_bad.go:10:") {
		t.Errorf("diagnostic not anchored at the offending function: %q", got[0])
	}
}

// The noinline rule is scoped to internal/mem: the same source elsewhere
// (e.g. a test helper package) is free to build faults inline.
func TestNoinlineFaultPassScopedToMem(t *testing.T) {
	wantDiags(t, lintFixture(t, "mte4jni/internal/report", "noinline_bad.go"))
}

func TestMemEncapsulationPass(t *testing.T) {
	// The root package gets no exemption: its experiments stage scenarios
	// through the runtime API.
	for _, pkg := range []string{"mte4jni/internal/server", "mte4jni"} {
		got := lintFixture(t, pkg, "encap_bad.go")
		wantDiags(t, got,
			"call to SetTagRange reaches into mem.Space internals",
			"call to WriteRaw reaches into mem.Space internals",
			"call to ZeroRaw reaches into mem.Space internals",
			"call to CopyRaw reaches into mem.Space internals",
		)
	}
}

// The memory-management tier itself may touch Space internals freely.
func TestMemEncapsulationAllowsMemTier(t *testing.T) {
	for _, pkg := range []string{
		"mte4jni/internal/mem", "mte4jni/internal/vm",
		"mte4jni/internal/core", "mte4jni/internal/guardedcopy", "mte4jni/internal/fuzz",
	} {
		wantDiags(t, lintFixture(t, pkg, "encap_bad.go"))
	}
}

func TestFastpathPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/mem", "fastpath_bad.go")
	// slowLookup violates five ways; fastLookup and unannotated are clean.
	wantDiags(t, got,
		"slowLookup calls time.Now",
		"slowLookup allocates via make",
		"slowLookup defers a call",
		"slowLookup calls fmt.Println",
		"slowLookup heap-allocates a &composite literal",
	)
}

func TestAtomicConsistencyPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/pool", "atomic_bad.go")
	wantDiags(t, got,
		"field n is accessed with sync/atomic elsewhere in this package but plainly assigned",
		"field n is accessed with sync/atomic elsewhere in this package but plainly incremented",
	)
}

func TestNoBareContextPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/server", "noctx_bad.go")
	wantDiags(t, got,
		"context.Background() severs the execution-context spine",
		"context.TODO() severs the execution-context spine",
	)
	if !strings.Contains(got[0], "noctx_bad.go:10:") {
		t.Errorf("diagnostic not anchored at the offending call: %q", got[0])
	}
}

// Command entrypoints are process roots: the same source under cmd/ is
// allowed to create root contexts.
func TestNoBareContextAllowsCmd(t *testing.T) {
	wantDiags(t, lintFixture(t, "mte4jni/cmd/mte4jni", "noctx_bad.go"))
}

func TestElisionEncapsulationPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/server", "elision_bad.go")
	wantDiags(t, got,
		"call to NewElisionMask constructs an elision mask outside the proof compiler",
		"ElisionMask composite literal constructs an elision mask outside the proof compiler",
		"ElisionMask composite literal constructs an elision mask outside the proof compiler",
	)
}

// Only the proof compiler (and interp, which defines the type) may mint
// masks; the same source there is clean.
func TestElisionEncapsulationAllowsCompilerTier(t *testing.T) {
	for _, pkg := range []string{"mte4jni/internal/analysis", "mte4jni/internal/interp"} {
		wantDiags(t, lintFixture(t, pkg, "elision_bad.go"))
	}
}

func TestUnguardedGatePass(t *testing.T) {
	// Outside the elision tier every *Unguarded call is flagged, gated or not.
	for _, pkg := range []string{"mte4jni/internal/server", "mte4jni"} {
		got := lintFixture(t, pkg, "unguarded_bad.go")
		wantDiags(t, got,
			"call to Load32Unguarded takes the unguarded access path from "+pkg,
			"call to Load32Unguarded takes the unguarded access path from "+pkg,
		)
	}
	// In internal/jni the gated call is sanctioned; the ungated one is not.
	got := lintFixture(t, "mte4jni/internal/jni", "unguarded_bad.go")
	wantDiags(t, got,
		"call to Load32Unguarded in ungatedLoad is not behind the elision gate",
	)
}

// The rest of the elision tier (mem itself, the fuzz oracle) may call
// unguarded variants without the jni gate shape.
func TestUnguardedGateAllowsElisionTier(t *testing.T) {
	for _, pkg := range []string{"mte4jni/internal/mem", "mte4jni/internal/fuzz"} {
		wantDiags(t, lintFixture(t, pkg, "unguarded_bad.go"))
	}
}

func TestTagTableEncapsulationPass(t *testing.T) {
	// Under internal/mem (a hypothetical sibling of tagtable.go) both the
	// raw directory selector and the canonical-array reference are flagged;
	// the accessor-based goodRead shape is not.
	got := lintFixture(t, "mte4jni/internal/mem", "tagtable_bad.go")
	wantDiags(t, got,
		"selector .tagPages reaches into the tag-page directory outside tagtable.go",
		"uniformPages referenced outside tagtable.go",
	)
	// Outside the package only the indexed directory access is flagged, as
	// defense in depth against the storage being re-exposed.
	got = lintFixture(t, "mte4jni/internal/server", "tagtable_bad.go")
	wantDiags(t, got,
		"indexing a .tagPages field outside internal/mem looks like direct tag-page directory access",
	)
}

// tagtable.go itself is exempt by filename: the identical source parsed
// as tagtable.go under internal/mem is clean, since that file is where the
// raw storage legitimately lives.
func TestTagTableEncapsulationExemptsTagTableFile(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "tagtable_bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tagtable.go")
	if err := os.WriteFile(path, src, 0o666); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if diags := runPasses(fset, "mte4jni/internal/mem", []*ast.File{f}); len(diags) != 0 {
		t.Fatalf("got %d diagnostics for tagtable.go itself, want 0", len(diags))
	}
}

func TestRedteamEncapsulationPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/server", "redteam_bad.go")
	wantDiags(t, got,
		"call to NewBruteForceAttack outside internal/redteam",
		"call to NewAsyncWindowAttack outside internal/redteam",
		"call to NewGCRaceAttack outside internal/redteam",
	)
}

// internal/redteam itself — the corpus, the harness, and their tests — may
// construct attacks freely.
func TestRedteamEncapsulationAllowsRedteam(t *testing.T) {
	wantDiags(t, lintFixture(t, "mte4jni/internal/redteam", "redteam_bad.go"))
}

func TestTemporalEncapsulationPass(t *testing.T) {
	got := lintFixture(t, "mte4jni/internal/server", "temporal_bad.go")
	wantDiags(t, got,
		"call to NewTemporalFinding outside internal/analysis",
		"call to NewWindowEvent outside internal/analysis",
		"call to NewWindowEvent outside internal/analysis",
	)
}

// The temporal effect domain itself may mint findings and events freely.
func TestTemporalEncapsulationAllowsAnalysis(t *testing.T) {
	wantDiags(t, lintFixture(t, "mte4jni/internal/analysis", "temporal_bad.go"))
}

// TestLintConfigDriver exercises the vet-tool protocol driver end to end on
// a written vet.cfg: diagnostics rendered as file:line:col, the facts file
// recorded, and exit-worthy count returned.
func TestLintConfigDriver(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "noinline_bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	goFile := filepath.Join(dir, "noinline_bad.go")
	if err := os.WriteFile(goFile, src, 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "pkg.vetx")
	cfg, _ := json.Marshal(vetConfig{
		ImportPath: "mte4jni/internal/mem",
		GoFiles:    []string{goFile},
		VetxOutput: vetx,
	})
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, cfg, 0o666); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := lintConfig(cfgPath, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("lintConfig reported %d diagnostics, want 1:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "noinline_bad.go:10:1: badFault constructs mte.Fault") {
		t.Errorf("diagnostic not in file:line:col form:\n%s", buf.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not recorded: %v", err)
	}
}

// Facts-only, standard-library, and out-of-module invocations must succeed
// silently (cmd/go runs the tool over every dependency) while still
// recording the facts file.
func TestLintConfigSkipsNonModulePackages(t *testing.T) {
	dir := t.TempDir()
	for i, cfg := range []vetConfig{
		{ImportPath: "mte4jni/internal/mem", VetxOnly: true, GoFiles: []string{"does-not-exist.go"}},
		{ImportPath: "fmt", Standard: map[string]bool{"fmt": true}, GoFiles: []string{"does-not-exist.go"}},
		{ImportPath: "example.com/other", GoFiles: []string{"does-not-exist.go"}},
	} {
		cfg.VetxOutput = filepath.Join(dir, "out.vetx")
		raw, _ := json.Marshal(cfg)
		cfgPath := filepath.Join(dir, "vet.cfg")
		if err := os.WriteFile(cfgPath, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := lintConfig(cfgPath, &buf)
		if err != nil || n != 0 || buf.Len() != 0 {
			t.Errorf("case %d: n=%d err=%v out=%q, want silent success", i, n, err, buf.String())
		}
		if _, err := os.Stat(cfg.VetxOutput); err != nil {
			t.Errorf("case %d: facts file not recorded: %v", i, err)
		}
	}
}

// In-package test variants arrive as "pkg [pkg.test]" with _test.go files
// in GoFiles; the driver must analyze the non-test files under the plain
// import path and skip the test files entirely.
func TestLintConfigTestVariant(t *testing.T) {
	dir := t.TempDir()
	testFile := filepath.Join(dir, "x_test.go")
	// Deliberately invalid Go: proves _test.go files are never parsed.
	if err := os.WriteFile(testFile, []byte("not go code"), 0o666); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(vetConfig{
		ImportPath: "mte4jni/internal/mem [mte4jni/internal/mem.test]",
		GoFiles:    []string{testFile},
	})
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := lintConfig(cfgPath, &buf); err != nil || n != 0 {
		t.Fatalf("test variant: n=%d err=%v out=%q", n, err, buf.String())
	}
}

func TestShardEncapsulationPass(t *testing.T) {
	// Outside internal/pool every shard-internal selector is flagged; the
	// method-based goodAcquire shape is not.
	got := lintFixture(t, "mte4jni/internal/server", "shard_bad.go")
	wantDiags(t, got,
		"selector .freeTokens reaches into admission-shard internals",
		"selector .waitq reaches into admission-shard internals",
		"selector .warmIdle reaches into admission-shard internals",
	)
	// internal/pool is where the shard mutex discipline lives: the same
	// source is clean there.
	wantDiags(t, lintFixture(t, "mte4jni/internal/pool", "shard_bad.go"))
}
