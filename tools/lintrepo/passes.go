package main

// The repo-invariant passes. Each works on plain syntax (go/ast, no
// type information — the repo is stdlib-only, so there is no go/analysis
// driver to borrow a type checker from); where syntax alone is ambiguous
// the pass errs toward silence and documents the heuristic.

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// diagnostic is one finding, positioned for file:line:col rendering.
type diagnostic struct {
	pos token.Pos
	msg string
}

// runPasses applies every pass that claims the package and returns the
// findings in source order (the order the walks produce them).
func runPasses(fset *token.FileSet, importPath string, files []*ast.File) []diagnostic {
	var diags []diagnostic
	diags = append(diags, checkNoinlineFault(importPath, files)...)
	diags = append(diags, checkMemEncapsulation(importPath, files)...)
	diags = append(diags, checkFastpath(files)...)
	diags = append(diags, checkAtomicConsistency(files)...)
	diags = append(diags, checkNoBareContext(importPath, files)...)
	diags = append(diags, checkElisionEncapsulation(importPath, files)...)
	diags = append(diags, checkUnguardedGate(importPath, files)...)
	diags = append(diags, checkTagTableEncapsulation(fset, importPath, files)...)
	diags = append(diags, checkRedteamEncapsulation(importPath, files)...)
	diags = append(diags, checkTemporalEncapsulation(importPath, files)...)
	diags = append(diags, checkShardEncapsulation(importPath, files)...)
	return diags
}

// hasDirective reports whether the declaration's doc block contains the
// given comment directive (an exact //-comment line, no leading space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Pass 1: noinline-fault.
//
// internal/mem outlines all fault construction into //go:noinline helpers so
// the fault-free access path performs zero allocations (the property
// TestCheckedAccessAllocs pins). A new *mte.Fault composite literal in a
// function the compiler may inline would silently drag the Backtrace
// allocation back onto the hot path; this pass makes that a lint failure
// instead of a perf regression.

// faultConstructorPkg is the only package the noinline rule applies to.
const faultConstructorPkg = modulePath + "/internal/mem"

func checkNoinlineFault(importPath string, files []*ast.File) []diagnostic {
	if importPath != faultConstructorPkg {
		return nil
	}
	var diags []diagnostic
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || hasDirective(fn.Doc, "//go:noinline") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok || !isSelector(cl.Type, "mte", "Fault") {
					return true
				}
				diags = append(diags, diagnostic{
					pos: fn.Pos(),
					msg: fmt.Sprintf("%s constructs mte.Fault but is not marked //go:noinline: fault construction must stay outlined so the fault-free access path does not allocate", fn.Name.Name),
				})
				return false
			})
		}
	}
	return diags
}

// isSelector reports whether e is the selector expression pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// ---------------------------------------------------------------------------
// Pass 2: mem-encapsulation.
//
// Space's raw internals — direct tag-storage writes, unchecked byte
// windows, scan-lock plumbing — are implementation surface for the
// memory-management tier, not API for the serving and analysis layers
// above it. Only the tier that simulates the machine may call them;
// everything else must go through checked accesses (Load*/Store*/Copy*)
// or the heap/VM abstractions.

// spaceInternals are the Space/Mapping methods the upper layers must not
// call. Bytes is handled separately (see memBytesSuspicious): the name
// collides with bytes.Buffer.Bytes and friends, so it is only flagged when
// the receiver is syntactically tied to a mem mapping.
var spaceInternals = map[string]bool{
	"SetTagRange":    true,
	"ZeroTagRange":   true,
	"ReadRaw":        true,
	"WriteRaw":       true,
	"EnableScanSync": true,
	"LockScan":       true,
	"UnlockScan":     true,
}

// memTier are the packages allowed to touch Space internals: the machine
// simulation itself plus the differential fuzzer, which deliberately pokes
// raw state to stage scenarios.
var memTier = map[string]bool{
	modulePath + "/internal/mem":         true,
	modulePath + "/internal/heap":        true,
	modulePath + "/internal/vm":          true,
	modulePath + "/internal/core":        true,
	modulePath + "/internal/jni":         true,
	modulePath + "/internal/guardedcopy": true,
	modulePath + "/internal/fuzz":        true,
}

func checkMemEncapsulation(importPath string, files []*ast.File) []diagnostic {
	if memTier[importPath] {
		return nil
	}
	var diags []diagnostic
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch {
			case spaceInternals[name]:
			case name == "Bytes" && memBytesSuspicious(sel.X):
			default:
				return true
			}
			diags = append(diags, diagnostic{
				pos: call.Pos(),
				msg: fmt.Sprintf("call to %s reaches into mem.Space internals from %s: raw tag storage and scan locks are only for the memory-management tier (internal/{mem,heap,vm,core,jni,guardedcopy,fuzz}); use checked accesses or the heap/VM API", name, importPath),
			})
			return true
		})
	}
	return diags
}

// memBytesSuspicious reports whether the receiver of a .Bytes() call is
// syntactically a mem mapping — i.e. the expression itself goes through a
// Mapping() accessor (vm.JavaHeap.Mapping().Bytes(...)). Plain identifiers
// (bytes.Buffer and friends) are left alone: without type information the
// name alone proves nothing, and a denied package holding a *mem.Mapping in
// a local would already have been flagged at whatever internals call
// produced it.
func memBytesSuspicious(recv ast.Expr) bool {
	found := false
	ast.Inspect(recv, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mapping" {
			found = true
			return false
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Pass 3: fastpath.
//
// Functions annotated //mte4jni:fastpath are the per-access engine: they run
// once per simulated load/store and are covered by zero-allocation tests.
// The pass rejects constructs that allocate or take timestamps — the two
// regressions that creep in silently and only show up later as a bench
// delta: make/new/append, &composite literals, closures, go/defer (defer
// also costs on the happy path), and time.Now/time.Since/fmt calls.

// fastpathDirective marks a function as per-access hot path.
const fastpathDirective = "//mte4jni:fastpath"

func checkFastpath(files []*ast.File) []diagnostic {
	var diags []diagnostic
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, fastpathDirective) {
				continue
			}
			diags = append(diags, checkFastpathBody(fn)...)
		}
	}
	return diags
}

func checkFastpathBody(fn *ast.FuncDecl) []diagnostic {
	var diags []diagnostic
	bad := func(pos token.Pos, what string) {
		diags = append(diags, diagnostic{
			pos: pos,
			msg: fmt.Sprintf("fastpath function %s %s: %s functions run once per simulated access and must not allocate or take timestamps", fn.Name.Name, what, fastpathDirective),
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "make" || fun.Name == "new" || fun.Name == "append" {
					bad(n.Pos(), fmt.Sprintf("allocates via %s", fun.Name))
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					switch {
					case id.Name == "time" && (fun.Sel.Name == "Now" || fun.Sel.Name == "Since"):
						bad(n.Pos(), "calls time."+fun.Sel.Name)
					case id.Name == "fmt":
						bad(n.Pos(), "calls fmt."+fun.Sel.Name)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					bad(n.Pos(), "heap-allocates a &composite literal")
				}
			}
		case *ast.FuncLit:
			bad(n.Pos(), "creates a closure")
			return false
		case *ast.GoStmt:
			bad(n.Pos(), "starts a goroutine")
		case *ast.DeferStmt:
			bad(n.Pos(), "defers a call")
		}
		return true
	})
	return diags
}

// ---------------------------------------------------------------------------
// Pass 4: atomic-consistency.
//
// A field read or written through sync/atomic anywhere in a package must be
// accessed that way everywhere in the package: one plain `s.f = v` next to
// an atomic.LoadUint64(&s.f) is a data race the race detector only catches
// if a test happens to interleave the two. The pass collects every field
// name that appears as &x.f in an atomic call, then flags plain assignments
// and ++/-- on selectors with those names.
//
// Matching is by field name only (no type information), which is exactly as
// strong as the repo's naming discipline — a false positive is resolved by
// renaming one of the fields, which the race-prone code needed anyway for a
// human reader.

// ---------------------------------------------------------------------------
// Pass 5: no-bare-context.
//
// The execution-context spine (DESIGN.md "Execution-context spine") only
// works if cancellation and deadlines flow unbroken from the HTTP edge to
// the interpreter loop. A context.Background() (or TODO()) in library code
// severs that flow: whatever runs under it can no longer be canceled by the
// request that asked for it. Fresh root contexts are therefore only allowed
// where roots genuinely exist — command entrypoints (cmd/...), main
// functions, and tests (the driver never parses _test.go files).

func checkNoBareContext(importPath string, files []*ast.File) []diagnostic {
	if strings.HasPrefix(importPath, modulePath+"/cmd/") {
		return nil
	}
	var diags []diagnostic
	check := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			if !isSelector(call.Fun, "context", "Background") && !isSelector(call.Fun, "context", "TODO") {
				return true
			}
			sel := call.Fun.(*ast.SelectorExpr)
			diags = append(diags, diagnostic{
				pos: call.Pos(),
				msg: fmt.Sprintf("context.%s() severs the execution-context spine: thread the caller's context through instead (bare root contexts belong only in cmd/ entrypoints, main functions, and tests)", sel.Sel.Name),
			})
			return true
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Name.Name == "main" || fn.Body == nil {
					continue
				}
				check(fn.Body)
				continue
			}
			// Package-level var initializers can sever the spine too.
			check(decl)
		}
	}
	return diags
}

// ---------------------------------------------------------------------------
// Pass 6: elision-encapsulation.
//
// An interp.ElisionMask is a soundness claim — "skipping the tag check at
// these PCs cannot change behaviour" — and the only thing entitled to make
// that claim is the proof compiler in internal/analysis, which derives it
// from discharged screening verdicts. A mask minted anywhere else (a
// convenient NewElisionMask in a bench, a composite literal in a handler)
// is an unproven elision: this pass makes it a lint failure. interp itself
// is allowed, since it defines the type and its own tests exercise it.

// elisionCompilerTier are the packages allowed to construct elision masks.
var elisionCompilerTier = map[string]bool{
	modulePath + "/internal/analysis": true,
	modulePath + "/internal/interp":   true,
}

func checkElisionEncapsulation(importPath string, files []*ast.File) []diagnostic {
	if elisionCompilerTier[importPath] {
		return nil
	}
	var diags []diagnostic
	flag := func(pos token.Pos, what string) {
		diags = append(diags, diagnostic{
			pos: pos,
			msg: fmt.Sprintf("%s constructs an elision mask outside the proof compiler: a mask is a soundness claim only internal/analysis may mint from discharged screening proofs; thread a compiled analysis.Elision through instead", what),
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewElisionMask" {
					flag(n.Pos(), "call to NewElisionMask")
				} else if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "NewElisionMask" {
					flag(n.Pos(), "call to NewElisionMask")
				}
			case *ast.CompositeLit:
				switch t := n.Type.(type) {
				case *ast.SelectorExpr:
					if t.Sel.Name == "ElisionMask" {
						flag(n.Pos(), "ElisionMask composite literal")
					}
				case *ast.Ident:
					if t.Name == "ElisionMask" {
						flag(n.Pos(), "ElisionMask composite literal")
					}
				}
			}
			return true
		})
	}
	return diags
}

// ---------------------------------------------------------------------------
// Pass 7: unguarded-gate.
//
// The *Unguarded access variants (internal/mem) skip the SWAR tag compare.
// Two invariants keep them sound: only the elision tier — internal/mem
// itself, the jni env, and the fuzz oracle — may call them at all; and inside internal/jni every call must sit lexically inside
// an if whose condition consults the elided() gate, so an invalidated proof
// (release, remap, digest mismatch) falls back to checked access instead of
// silently staying guard-free. The gate detection is syntactic (an
// identifier named "elided" anywhere in the condition), exactly as strong
// as the env's naming discipline.

// unguardedTier are the packages allowed to call *Unguarded accessors.
var unguardedTier = map[string]bool{
	modulePath + "/internal/mem":  true,
	modulePath + "/internal/jni":  true,
	modulePath + "/internal/fuzz": true,
}

func checkUnguardedGate(importPath string, files []*ast.File) []diagnostic {
	inTier := unguardedTier[importPath]
	gateRequired := importPath == modulePath+"/internal/jni"
	if inTier && !gateRequired {
		return nil
	}
	var diags []diagnostic
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Collect the gated regions: bodies of ifs that consult elided().
			var gated [][2]token.Pos
			if gateRequired {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if ifs, ok := n.(*ast.IfStmt); ok && condMentionsElided(ifs.Cond) {
						gated = append(gated, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
					}
					return true
				})
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !strings.HasSuffix(sel.Sel.Name, "Unguarded") {
					return true
				}
				if !inTier {
					diags = append(diags, diagnostic{
						pos: call.Pos(),
						msg: fmt.Sprintf("call to %s takes the unguarded access path from %s: guard-free variants belong to the elision tier (root bench drivers, internal/{mem,jni,fuzz}); use the checked accessors", sel.Sel.Name, importPath),
					})
					return true
				}
				for _, r := range gated {
					if call.Pos() >= r[0] && call.End() <= r[1] {
						return true
					}
				}
				diags = append(diags, diagnostic{
					pos: call.Pos(),
					msg: fmt.Sprintf("call to %s in %s is not behind the elision gate: unguarded access must sit inside an if whose condition consults elided(), so invalidated proofs fall back to checked access", sel.Sel.Name, fn.Name.Name),
				})
				return true
			})
		}
	}
	return diags
}

// condMentionsElided reports whether the condition consults the env's
// elision gate — any identifier named "elided" (e.elided(), elided, ...).
func condMentionsElided(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "elided" {
			found = true
			return false
		}
		return true
	})
	return found
}

func checkAtomicConsistency(files []*ast.File) []diagnostic {
	atomicFields := map[string]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasPrefix(sel.Sel.Name, "Load") &&
				!strings.HasPrefix(sel.Sel.Name, "Store") &&
				!strings.HasPrefix(sel.Sel.Name, "Add") &&
				!strings.HasPrefix(sel.Sel.Name, "Swap") &&
				!strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if fsel, ok := un.X.(*ast.SelectorExpr); ok {
					if _, seen := atomicFields[fsel.Sel.Name]; !seen {
						atomicFields[fsel.Sel.Name] = fsel.Pos()
					}
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	var diags []diagnostic
	flag := func(sel *ast.SelectorExpr, how string) {
		if _, ok := atomicFields[sel.Sel.Name]; !ok {
			return
		}
		diags = append(diags, diagnostic{
			pos: sel.Pos(),
			msg: fmt.Sprintf("field %s is accessed with sync/atomic elsewhere in this package but %s here: mixed plain/atomic access is a data race", sel.Sel.Name, how),
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						flag(sel, "plainly assigned")
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					flag(sel, "plainly incremented")
				}
			}
			return true
		})
	}
	return diags
}

// ---------------------------------------------------------------------------
// Pass 8: tagtable-encapsulation.
//
// The hierarchical tag store (internal/mem/tagtable.go) owns two pieces of
// raw storage: each mapping's directory of atomic page pointers
// (tagTable.dir) and the canonical uniform-page array (uniformPages). Every
// invariant the store guarantees — pages fully filled before CAS
// publication, canonical pages never written, freelist recycling, residency
// accounting — lives behind its methods plus the page()/canonical()
// accessors. Code that indexes the directory or the canonical array
// directly could observe a half-initialized page or skew the counters, so
// this pass pins the boundary: inside internal/mem only tagtable.go may
// name tagTable.dir or uniformPages. Outside the package both are
// unexported and unreachable; indexing a `.dir` selector there is still
// flagged as defense in depth against the storage being re-exposed through
// a wrapper. Syntax-only caveat: any field named `dir` trips the rule, so
// the name is effectively reserved for the tag directory in this module.

// tagTableFile is the one file allowed to touch raw tag-page storage.
const tagTableFile = "tagtable.go"

func checkTagTableEncapsulation(fset *token.FileSet, importPath string, files []*ast.File) []diagnostic {
	inMem := importPath == faultConstructorPkg
	var diags []diagnostic
	for _, f := range files {
		if inMem && filepath.Base(fset.Position(f.Pos()).Filename) == tagTableFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if inMem && n.Sel.Name == "dir" {
					diags = append(diags, diagnostic{
						pos: n.Sel.Pos(),
						msg: "selector .dir reaches into the tag-page directory outside tagtable.go: raw tag storage must go through tagTable methods (page/setRange/release) so page-publication and residency invariants hold",
					})
				}
			case *ast.IndexExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && !inMem && sel.Sel.Name == "dir" {
					diags = append(diags, diagnostic{
						pos: n.Pos(),
						msg: "indexing a .dir field outside internal/mem looks like direct tag-page directory access: the two-level tag table is private to internal/mem and must stay behind Space accessors",
					})
				}
			case *ast.Ident:
				if inMem && n.Name == "uniformPages" {
					diags = append(diags, diagnostic{
						pos: n.Pos(),
						msg: "uniformPages referenced outside tagtable.go: canonical tag pages are shared immutable storage and may only be reached via canonical()/isCanonical()",
					})
				}
			}
			return true
		})
	}
	return diags
}

// ---------------------------------------------------------------------------
// Pass 9: redteam-encapsulation.
//
// The attack corpus in internal/redteam is deliberately dangerous code: each
// New*Attack constructor builds an exploit (forged-tag stores, damage-window
// races, guarded-copy blind-spot abuse) meant to run only inside the harness,
// which pins the target, bounds the probe budget, and reduces the outcome to
// a detection verdict. An attack instantiated elsewhere — a bench spraying
// forged stores, a handler wiring an exploit into the serving path — would be
// an unharnessed exploit with no verdict and no telemetry. This pass keeps
// every New*Attack call inside internal/redteam; everything else consumes
// attacks through redteam.Corpus(), redteam.Run(), or the serving-tier
// ServingProbe, which carry their own harnessing.

func checkRedteamEncapsulation(importPath string, files []*ast.File) []diagnostic {
	if importPath == modulePath+"/internal/redteam" {
		return nil
	}
	isAttackCtor := func(name string) bool {
		return strings.HasPrefix(name, "New") && strings.HasSuffix(name, "Attack") && len(name) > len("NewAttack")
	}
	var diags []diagnostic
	flag := func(pos token.Pos, name string) {
		diags = append(diags, diagnostic{
			pos: pos,
			msg: fmt.Sprintf("call to %s outside internal/redteam: attack constructors build unharnessed exploits; drive the corpus through redteam.Run/redteam.Corpus (or redteam.ServingProbe in the serving tier) so every probe lands in a harness with a detection verdict", name),
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if isAttackCtor(fun.Sel.Name) {
					flag(call.Pos(), fun.Sel.Name)
				}
			case *ast.Ident:
				if isAttackCtor(fun.Name) {
					flag(call.Pos(), fun.Name)
				}
			}
			return true
		})
	}
	return diags
}

// ---------------------------------------------------------------------------
// Pass 10: temporal-encapsulation.
//
// A TemporalFinding is an admission verdict — "this call site's critical
// window is exposed under that checker's placement" — and a WindowEvent is a
// step in the happens-before trace that justifies it. Both are only
// meaningful when derived by the temporal effect domain in internal/analysis
// from a native summary; one minted anywhere else (a handler fabricating a
// finding to force a 422, a test conjuring events that never happened) is an
// unproven claim dressed up as analysis output. Same discipline as the
// elision-mask pass: only the analyzer may construct them, everything else
// receives them through a ScreenVerdict.

// temporalCtors are the constructors reserved for the temporal effect domain.
var temporalCtors = map[string]bool{
	"NewTemporalFinding": true,
	"NewWindowEvent":     true,
}

func checkTemporalEncapsulation(importPath string, files []*ast.File) []diagnostic {
	if importPath == modulePath+"/internal/analysis" {
		return nil
	}
	var diags []diagnostic
	flag := func(pos token.Pos, name string) {
		diags = append(diags, diagnostic{
			pos: pos,
			msg: fmt.Sprintf("call to %s outside internal/analysis: temporal findings and window events are verdicts only the temporal effect domain may derive; consume them through the ScreenVerdict instead of constructing them", name),
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if temporalCtors[fun.Sel.Name] {
					flag(call.Pos(), fun.Sel.Name)
				}
			case *ast.Ident:
				if temporalCtors[fun.Name] {
					flag(call.Pos(), fun.Name)
				}
			}
			return true
		})
	}
	return diags
}

// ---------------------------------------------------------------------------
// Pass 11: shard-encapsulation.
//
// An admission shard's internals — its slice of the token semaphore
// (freeTokens), its parked-Acquire FIFO (waitq) and its per-scheme warm
// free lists (warmIdle) — are guarded by the shard mutex and tied together
// by the lease-ledger invariant (sum of shard leases == pool created +
// reused, exactly). The waiter-grant protocol depends on "absent from
// waitq implies granted or abandoned" holding under that one lock; a
// handler or bench reaching for these fields directly could drop a token,
// double-grant a waiter, or resurrect a retired session past the drain
// assertion. This pass reserves the three names for internal/pool: any
// selector expression naming them in another package is flagged, even
// through a wrapper that re-exposes the shard struct.

// shardInternalFields are the shard fields reserved for internal/pool.
var shardInternalFields = map[string]bool{
	"freeTokens": true,
	"waitq":      true,
	"warmIdle":   true,
}

func checkShardEncapsulation(importPath string, files []*ast.File) []diagnostic {
	if importPath == modulePath+"/internal/pool" {
		return nil
	}
	var diags []diagnostic
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !shardInternalFields[sel.Sel.Name] {
				return true
			}
			diags = append(diags, diagnostic{
				pos: sel.Sel.Pos(),
				msg: fmt.Sprintf("selector .%s reaches into admission-shard internals outside internal/pool: the token semaphore, waiter queue and warm free lists are guarded by the shard mutex and must be driven through Pool methods (AcquireFor/Release/Close) so the lease ledger stays exact", sel.Sel.Name),
			})
			return true
		})
	}
	return diags
}
