// Command lintrepo is this repository's own vet tool: a set of
// go/analysis-style passes enforcing repo invariants that ordinary go vet
// cannot know about, run as `go vet -vettool=<lintrepo> ./...` (the
// `make lint-repo` target, part of `make check`).
//
// The passes (see passes.go):
//
//   - noinline-fault: functions in internal/mem that construct *mte.Fault
//     must be marked //go:noinline, so fault construction (and its
//     Backtrace allocation) stays off the fault-free access path.
//   - mem-encapsulation: Space internals — raw tag storage, raw byte
//     windows, scan-lock plumbing — may only be touched by the
//     memory-management tier, never by the serving/analysis layers.
//   - fastpath: functions annotated //mte4jni:fastpath must not allocate,
//     take timestamps, or otherwise leave the zero-cost regime.
//   - atomic-consistency: a struct field accessed through sync/atomic
//     anywhere in a package must not also be plainly assigned in that
//     package.
//   - no-bare-context: context.Background()/context.TODO() are forbidden
//     outside cmd/ packages, main functions, and tests, keeping the
//     execution-context spine (cancellation, deadlines, tracing) unbroken
//     from the HTTP edge to the interpreter loop.
//   - elision-encapsulation: only the proof compiler (internal/analysis) —
//     and internal/interp, which defines the type — may construct an
//     interp.ElisionMask; a mask minted anywhere else is an unproven
//     soundness claim.
//   - unguarded-gate: the *Unguarded access variants are callable only from
//     the elision tier, and inside internal/jni only behind an if that
//     consults the elided() gate, so invalidated proofs fall back to
//     checked access.
//   - tagtable-encapsulation: the hierarchical tag store's raw storage —
//     the per-mapping page directory (Mapping.tagPages) and the canonical
//     uniform-page array (uniformPages) — may only be named inside
//     internal/mem/tagtable.go; all other code resolves pages through the
//     Tagged()/tpage()/canonical() accessors, which uphold the publication
//     and residency invariants.
//   - redteam-encapsulation: the New*Attack constructors build unharnessed
//     exploits and may only be called inside internal/redteam; everything
//     else consumes the corpus through redteam.Run/Corpus or the serving
//     tier's ServingProbe, which carry their own harnessing and verdicts.
//   - temporal-encapsulation: NewTemporalFinding and NewWindowEvent may only
//     be called inside internal/analysis; a temporal verdict or
//     happens-before event constructed anywhere else is an unproven
//     admission claim — consume them through the ScreenVerdict.
//
// The tool speaks the cmd/go vet-tool protocol directly (the golang.org/x/
// tools unitchecker is not vendored here, and the repo is stdlib-only):
//
//	lintrepo -V=full        print a version line carrying a content hash of
//	                        the tool binary, so editing the tool invalidates
//	                        go's vet action cache
//	lintrepo -flags         print the tool's analyzer flags as JSON (none)
//	lintrepo <vet.cfg>      analyze one package described by the JSON config
//	                        cmd/go wrote; diagnostics go to stderr as
//	                        file:line:col: message, exit 2 if any fired
//
// cmd/go also invokes the tool for every dependency (including the standard
// library) in facts-only mode; lintrepo has no cross-package facts, so those
// invocations just record an empty facts file and exit.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// modulePath is the import-path prefix of the packages the passes apply to.
// Everything else (standard library, facts-only dependency invocations) is
// acknowledged and skipped.
const modulePath = "mte4jni"

func main() {
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// No analyzer flags: cmd/go parses this as an empty flag set.
		fmt.Println("[]")
		return
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lintrepo [-V=full | -flags | vet.cfg]")
		os.Exit(2)
	}
	// Per cmd/go convention the config path is the last argument; any vet
	// flags the user passed come before it and none are ours.
	nd, err := lintConfig(args[len(args)-1], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintrepo:", err)
		os.Exit(1)
	}
	if nd > 0 {
		os.Exit(2)
	}
}

// printVersion emits the `-V=full` line cmd/go hashes into its vet action
// IDs. The build ID is a content hash of the tool binary itself, so
// rebuilding lintrepo after an edit re-runs vet everywhere instead of
// replaying stale cached verdicts.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("lintrepo version devel buildID=%x\n", h.Sum(nil))
}

// vetConfig is the subset of cmd/go's per-package vet configuration JSON
// that lintrepo consumes.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	Standard   map[string]bool // package path -> is standard library
	VetxOnly   bool
	VetxOutput string
}

// lintConfig analyzes the package described by the vet config at cfgPath,
// writing diagnostics to w, and reports how many fired. Dependency
// (facts-only) and out-of-module packages are acknowledged without
// analysis.
func lintConfig(cfgPath string, w io.Writer) (ndiags int, err error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}
	// Record the (empty) facts file first: cmd/go caches vet actions by
	// their outputs, and dependency invocations exist only to produce it.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("lintrepo: no facts\n"), 0o666); err != nil {
			return 0, err
		}
	}
	// "pkg [pkg.test]" is the in-package test variant; analyze it as pkg
	// (its _test.go files are skipped below, so the verdict matches).
	importPath := cfg.ImportPath
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i]
	}
	inModule := importPath == modulePath || strings.HasPrefix(importPath, modulePath+"/")
	if cfg.VetxOnly || cfg.Standard[importPath] || !inModule {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(filepath.Base(name), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return 0, err
		}
		files = append(files, f)
	}
	diags := runPasses(fset, importPath, files)
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s\n", fset.Position(d.pos), d.msg)
	}
	return len(diags), nil
}
