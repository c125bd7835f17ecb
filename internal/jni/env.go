// Package jni implements the Java Native Interface surface of the simulated
// runtime: the raw-pointer Get/Release interfaces of the paper's Table 1,
// the native-method trampolines that flip MTE checking at thread level
// (§3.3/§4.3), and a CheckJNI-style validation layer.
//
// Native "code" in this reproduction is a Go function receiving an *Env. It
// touches Java heap memory exclusively through the Env's Load/Store/Copy
// helpers, which perform checked accesses against the simulated memory —
// the same unrestricted raw-pointer access model (pointer arithmetic
// included) that makes real JNI dangerous.
package jni

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mte4jni/internal/exec"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// Env is the per-thread JNI environment, the `JNIEnv*` of the simulation.
type Env struct {
	thread  *vm.Thread
	vm      *vm.VM
	checker Checker

	// checkJNI enables the validation layer (release-pointer matching,
	// double-release and type checks). ART always validates when any
	// protection debugging is on; we keep it switchable for benchmarks.
	checkJNI bool

	// mteThreadControl is true when the trampolines must write TCO on
	// native entry/exit — the paper's thread-level enabling. It is false
	// both for non-MTE schemes and for the naive process-level design.
	mteThreadControl bool

	// mu guards the acquisition ledger. Entries are values, so a handout
	// adds no allocation once the ledger has grown to the thread's peak.
	mu       sync.Mutex
	acquired []acquisition

	// frameLabels caches the simulated native frame label per method name
	// (see CallNative). Like the thread's TLB it is used only by the
	// goroutine driving the env.
	frameLabels map[string]string

	// tracer, when set, receives TraceEvents (see trace.go).
	tracer atomic.Pointer[Tracer]

	// execCtx is the execution context of the request currently driving this
	// env (nil = detached). It rides on the Env the way ART threads its
	// per-thread state through JNIEnv: native bodies and workload kernels
	// reach it via Exec() without every call signature changing.
	execCtx *exec.Context

	// elide is the proof-carrying elision gate (see elide.go); like execCtx
	// it is owned by the lease's goroutine. elideInvalidations counts proof
	// invalidations monotonically across runs.
	elide              elisionState
	elideInvalidations uint64
}

// acquisition records one outstanding Get so the matching Release can be
// validated and the object unpinned.
type acquisition struct {
	// obj is the object whose payload was handed to the checker (for
	// GetStringUTFChars this is the temporary Modified-UTF-8 buffer).
	obj   *vm.Object
	iface string
	ptr   mte.Ptr
	begin mte.Addr
	end   mte.Addr
	// match is the object the Release interface will be called with; equal
	// to obj except for the UTFChars path, where it is the source string.
	match *vm.Object
	// freeObj marks obj as a JNI-owned temporary to destroy on release.
	freeObj bool
}

// NewEnv creates the JNI environment for a thread under the given
// protection scheme. checkJNI enables CheckJNI-style validation.
func NewEnv(t *vm.Thread, checker Checker, checkJNI bool) *Env {
	v := t.VM()
	return &Env{
		thread:           t,
		vm:               v,
		checker:          checker,
		checkJNI:         checkJNI,
		mteThreadControl: v.MTEEnabled() && !v.Options().ProcessLevelMTE,
	}
}

// Thread returns the owning thread.
func (e *Env) Thread() *vm.Thread { return e.thread }

// VM returns the runtime.
func (e *Env) VM() *vm.VM { return e.vm }

// Checker returns the active protection scheme.
func (e *Env) Checker() Checker { return e.checker }

// Scheme returns the protection scheme name for reports.
func (e *Env) Scheme() string { return e.checker.Name() }

// BindExec attaches the execution context of the request about to run on
// this env (nil detaches). The env is owned by a single goroutine per lease,
// so no synchronization is needed; the pool binds before a run and detaches
// after.
func (e *Env) BindExec(ec *exec.Context) { e.execCtx = ec }

// Exec returns the bound execution context (may be nil). All exec.Context
// methods are nil-receiver safe, so callers can use the result directly.
func (e *Env) Exec() *exec.Context { return e.execCtx }

// OutstandingAcquisitions reports how many Gets have not been released —
// CheckJNI flags a nonzero count at thread detach as a leak.
func (e *Env) OutstandingAcquisitions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.acquired)
}

// recordAcquisition pins the payload object and logs the handout.
func (e *Env) recordAcquisition(a acquisition) {
	a.obj.Pin()
	if a.match == nil {
		a.match = a.obj
	}
	e.mu.Lock()
	e.acquired = append(e.acquired, a)
	e.mu.Unlock()
}

// takeAcquisition validates and removes the ledger entry matching a
// Release call. With CheckJNI off it still consumes an entry (so pins stay
// balanced) but skips the strict match error.
func (e *Env) takeAcquisition(match *vm.Object, iface string, p mte.Ptr) (acquisition, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, a := range e.acquired {
		if a.match == match && a.ptr == p {
			e.acquired = slices.Delete(e.acquired, i, i+1)
			return a, nil
		}
	}
	if e.checkJNI {
		return acquisition{}, fmt.Errorf("jni: CheckJNI: %s called with pointer %v that was not returned for %s (double release or wrong pointer?)",
			iface, p, match)
	}
	// Without CheckJNI, mimic ART's lenient fallback: match on object only.
	for i, a := range e.acquired {
		if a.match == match {
			e.acquired = slices.Delete(e.acquired, i, i+1)
			return a, nil
		}
	}
	return acquisition{}, fmt.Errorf("jni: release of %s with no outstanding acquisition", match)
}

// --- Native memory access helpers -----------------------------------------
//
// These are the simulated load/store instructions of native code. On a
// synchronous tag-check fault they panic with the *mte.Fault, modelling the
// SIGSEGV that kills the native frame; the trampoline (CallNative) recovers
// it and turns it into the crash report. Faults are enriched with the Go
// call site of the access so reports pinpoint the faulting line, like the
// paper's Figure 4b.

// fault enriches and raises a synchronous fault.
func (e *Env) fault(f *mte.Fault) {
	if _, file, line, ok := runtime.Caller(2); ok {
		f.PC = fmt.Sprintf("%s (%s:%d)", f.PC, trimPath(file), line)
		if len(f.Backtrace) > 0 {
			f.Backtrace[0] = f.PC
		} else {
			f.Backtrace = []string{f.PC}
		}
	}
	panic(f)
}

// trimPath shortens an absolute Go file path to its last two elements.
func trimPath(p string) string {
	slash := 0
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			slash++
			if slash == 2 {
				return p[i+1:]
			}
		}
	}
	return p
}

// traceAccess emits a TraceAccess event ahead of the access itself, so a
// faulting load or store still appears in the trace (the lint needs to see
// the access that killed the process, just like the crash report does).
func (e *Env) traceAccess(iface string, p mte.Ptr, size int, write bool) {
	if e.tracing() {
		e.trace(TraceEvent{Kind: TraceAccess, Iface: iface, Ptr: p, Size: size, Write: write})
	}
}

// LoadInt performs a checked 32-bit load through a raw pointer.
func (e *Env) LoadInt(p mte.Ptr) int32 {
	e.traceAccess("LoadInt", p, 4, false)
	var v uint32
	var f *mte.Fault
	if e.elided() {
		v, f = e.vm.Space.Load32Unguarded(e.thread.Ctx(), p)
	} else {
		v, f = e.vm.Space.Load32(e.thread.Ctx(), p)
	}
	if f != nil {
		e.fault(f)
	}
	return int32(v)
}

// StoreInt performs a checked 32-bit store through a raw pointer.
func (e *Env) StoreInt(p mte.Ptr, v int32) {
	e.traceAccess("StoreInt", p, 4, true)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.Store32Unguarded(e.thread.Ctx(), p, uint32(v))
	} else {
		f = e.vm.Space.Store32(e.thread.Ctx(), p, uint32(v))
	}
	if f != nil {
		e.fault(f)
	}
}

// LoadByte performs a checked 8-bit load.
func (e *Env) LoadByte(p mte.Ptr) byte {
	e.traceAccess("LoadByte", p, 1, false)
	var v uint8
	var f *mte.Fault
	if e.elided() {
		v, f = e.vm.Space.Load8Unguarded(e.thread.Ctx(), p)
	} else {
		v, f = e.vm.Space.Load8(e.thread.Ctx(), p)
	}
	if f != nil {
		e.fault(f)
	}
	return v
}

// StoreByte performs a checked 8-bit store.
func (e *Env) StoreByte(p mte.Ptr, v byte) {
	e.traceAccess("StoreByte", p, 1, true)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.Store8Unguarded(e.thread.Ctx(), p, v)
	} else {
		f = e.vm.Space.Store8(e.thread.Ctx(), p, v)
	}
	if f != nil {
		e.fault(f)
	}
}

// LoadChar performs a checked 16-bit load (Java char / UTF-16 unit).
func (e *Env) LoadChar(p mte.Ptr) uint16 {
	e.traceAccess("LoadChar", p, 2, false)
	var v uint16
	var f *mte.Fault
	if e.elided() {
		v, f = e.vm.Space.Load16Unguarded(e.thread.Ctx(), p)
	} else {
		v, f = e.vm.Space.Load16(e.thread.Ctx(), p)
	}
	if f != nil {
		e.fault(f)
	}
	return v
}

// StoreChar performs a checked 16-bit store.
func (e *Env) StoreChar(p mte.Ptr, v uint16) {
	e.traceAccess("StoreChar", p, 2, true)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.Store16Unguarded(e.thread.Ctx(), p, v)
	} else {
		f = e.vm.Space.Store16(e.thread.Ctx(), p, v)
	}
	if f != nil {
		e.fault(f)
	}
}

// LoadLong performs a checked 64-bit load.
func (e *Env) LoadLong(p mte.Ptr) int64 {
	e.traceAccess("LoadLong", p, 8, false)
	var v uint64
	var f *mte.Fault
	if e.elided() {
		v, f = e.vm.Space.Load64Unguarded(e.thread.Ctx(), p)
	} else {
		v, f = e.vm.Space.Load64(e.thread.Ctx(), p)
	}
	if f != nil {
		e.fault(f)
	}
	return int64(v)
}

// StoreLong performs a checked 64-bit store.
func (e *Env) StoreLong(p mte.Ptr, v int64) {
	e.traceAccess("StoreLong", p, 8, true)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.Store64Unguarded(e.thread.Ctx(), p, uint64(v))
	} else {
		f = e.vm.Space.Store64(e.thread.Ctx(), p, uint64(v))
	}
	if f != nil {
		e.fault(f)
	}
}

// Memcpy copies n bytes between two raw Java-heap pointers with checked
// access on both sides — the native method body of the Figure 5 workload.
func (e *Env) Memcpy(dst, src mte.Ptr, n int) {
	e.traceAccess("Memcpy", src, n, false)
	e.traceAccess("Memcpy", dst, n, true)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.MoveUnguarded(e.thread.Ctx(), dst, src, n)
	} else {
		f = e.vm.Space.Move(e.thread.Ctx(), dst, src, n)
	}
	if f != nil {
		e.fault(f)
	}
}

// CopyToNative reads len(dst) bytes from simulated memory at src into a
// native (Go) buffer, checked.
func (e *Env) CopyToNative(dst []byte, src mte.Ptr) {
	e.traceAccess("CopyToNative", src, len(dst), false)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.CopyOutUnguarded(e.thread.Ctx(), src, dst)
	} else {
		f = e.vm.Space.CopyOut(e.thread.Ctx(), src, dst)
	}
	if f != nil {
		e.fault(f)
	}
}

// CopyFromNative writes src into simulated memory at dst, checked.
func (e *Env) CopyFromNative(dst mte.Ptr, src []byte) {
	e.traceAccess("CopyFromNative", dst, len(src), true)
	var f *mte.Fault
	if e.elided() {
		f = e.vm.Space.CopyInUnguarded(e.thread.Ctx(), dst, src)
	} else {
		f = e.vm.Space.CopyIn(e.thread.Ctx(), dst, src)
	}
	if f != nil {
		e.fault(f)
	}
}

// Syscall simulates the native code performing a system call; in
// asynchronous MTE mode a latched tag fault is delivered here (the getuid
// frame of Figure 4c), raised like a synchronous signal.
func (e *Env) Syscall(name string) {
	if f := e.thread.Syscall(name); f != nil {
		panic(f)
	}
}
