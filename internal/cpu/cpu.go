// Package cpu models the per-thread execution state that MTE4JNI depends
// on: the TCO (Tag Check Override) register used to enable or disable tag
// checking at thread level (paper §3.3), the TCF check-mode selection, the
// TFSR-like accumulator where asynchronous tag faults are latched, and a
// simulated call stack so fault reports can show *where* a fault was
// detected — the property compared across schemes in the paper's Figure 4.
//
// A Context is owned by exactly one simulated thread (one goroutine), but
// the TCO and TFSR state is accessed with atomics so that diagnostic readers
// (tests, the report package) can observe it from outside.
package cpu

import (
	"sync"
	"sync/atomic"

	"mte4jni/internal/mte"
)

// Context is the architectural state of one simulated hardware thread.
//
// The zero value is not ready for use; create Contexts with New. A Context
// starts with tag checking suppressed (TCO=1), matching a thread that is
// executing managed (Java) code: per the paper, checking is switched on only
// while the thread runs native code, by the trampoline writing TCO.
type Context struct {
	name string

	// state packs the two registers the access hot path consults on every
	// single load and store into one atomic word so that the checking
	// decision is a single atomic load:
	//
	//   bits 0-1: the TCF tag-check-fault mode (none/sync/async)
	//   bit 2:    TCO — set when tag checks are suppressed (ARM sense)
	//
	// Both fields are written rarely (VM configuration, trampoline
	// entry/exit) and read on every access, so the packing trades a CAS
	// loop on the cold writes for one load instead of two on the hot read.
	state atomic.Int32

	// tlb is the per-thread mapping-translation cache consulted by the
	// package mem fast path. It is owned by the goroutine driving this
	// Context; see TLB for the invalidation contract.
	tlb TLB

	// tfsr latches the first asynchronously detected fault, mirroring
	// TFSR_EL0.TF0. Further async faults are counted but not recorded.
	tfsrMu     sync.Mutex
	tfsrFault  *mte.Fault
	tfsrExtra  int
	asyncTotal atomic.Int64

	// frames is the simulated call stack, outermost first. Only the owning
	// goroutine pushes and pops, but fault reporting reads it, so it is
	// guarded for the benefit of the race detector.
	framesMu sync.Mutex
	frames   []string
	// leave is the frame-pop function Enter hands out, bound once here so
	// entering a frame allocates nothing (every native call enters two).
	leave func()
}

// state word layout: TCF mode in the low bits, TCO above it.
const (
	stateTCFMask = int32(0b011)
	stateTCOBit  = int32(0b100)
)

// New creates a Context for a thread with the given name. Checking starts
// suppressed (TCO=1) in the given check mode.
func New(name string, mode mte.CheckMode) *Context {
	c := &Context{name: name}
	c.state.Store(int32(mode)&stateTCFMask | stateTCOBit)
	c.leave = c.popFrame
	return c
}

// Name returns the thread name used in fault reports.
func (c *Context) Name() string { return c.name }

// CheckMode returns the thread's TCF mode.
func (c *Context) CheckMode() mte.CheckMode {
	return mte.CheckMode(c.state.Load() & stateTCFMask)
}

// SetCheckMode changes the thread's TCF mode, preserving TCO.
func (c *Context) SetCheckMode(m mte.CheckMode) {
	for {
		old := c.state.Load()
		next := old&^stateTCFMask | int32(m)&stateTCFMask
		if c.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetTCO writes the TCO register. true suppresses tag checking (ARM TCO=1);
// false enables it. Trampolines call SetTCO(false) on native entry and
// SetTCO(true) on native exit (paper §3.3/§4.3).
func (c *Context) SetTCO(suppressed bool) {
	for {
		old := c.state.Load()
		next := old &^ stateTCOBit
		if suppressed {
			next = old | stateTCOBit
		}
		if next == old || c.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// TCO reports whether tag checking is currently suppressed.
func (c *Context) TCO() bool { return c.state.Load()&stateTCOBit != 0 }

// Checking reports whether an access on this thread should be tag-checked
// right now: the mode must not be none and TCO must be clear. Thanks to the
// packed state word this is a single atomic load — the cost every access
// pays even with checking disabled (managed code, TCO=1).
func (c *Context) Checking() bool {
	st := c.state.Load()
	return st&stateTCOBit == 0 && st&stateTCFMask != int32(mte.TCFNone)
}

// TLB returns the thread's mapping-translation cache. Only the goroutine
// driving the Context may use it.
func (c *Context) TLB() *TLB { return &c.tlb }

// Enter pushes a simulated stack frame labelled pc and returns a function
// that pops the innermost frame. Use with defer:
//
//	defer ctx.Enter("test_ofb+0")()
func (c *Context) Enter(pc string) func() {
	c.framesMu.Lock()
	c.frames = append(c.frames, pc)
	c.framesMu.Unlock()
	return c.leave
}

// popFrame pops the innermost frame; popping an empty stack is a no-op.
func (c *Context) popFrame() {
	c.framesMu.Lock()
	if n := len(c.frames); n > 0 {
		c.frames = c.frames[:n-1]
	}
	c.framesMu.Unlock()
}

// SetPC replaces the label of the innermost frame, simulating the program
// counter advancing within a native function. If no frame is live, it pushes
// one.
func (c *Context) SetPC(pc string) {
	c.framesMu.Lock()
	if n := len(c.frames); n > 0 {
		c.frames[n-1] = pc
	} else {
		c.frames = append(c.frames, pc)
	}
	c.framesMu.Unlock()
}

// PC returns the innermost simulated frame label, or "<unknown>" when the
// thread has no live frames.
func (c *Context) PC() string {
	c.framesMu.Lock()
	defer c.framesMu.Unlock()
	if n := len(c.frames); n > 0 {
		return c.frames[n-1]
	}
	return "<unknown>"
}

// Backtrace returns a copy of the simulated call stack, innermost first —
// the order logcat prints "#00 pc …" lines in.
func (c *Context) Backtrace() []string {
	c.framesMu.Lock()
	defer c.framesMu.Unlock()
	bt := make([]string, len(c.frames))
	for i, f := range c.frames {
		bt[len(c.frames)-1-i] = f
	}
	return bt
}

// LatchAsyncFault records an asynchronously detected tag mismatch in the
// TFSR accumulator. Only the first fault is kept in full, matching the
// single TF0 bit plus the kernel's per-thread fault record; subsequent
// faults before the next synchronization point are only counted.
func (c *Context) LatchAsyncFault(f *mte.Fault) {
	c.asyncTotal.Add(1)
	c.tfsrMu.Lock()
	defer c.tfsrMu.Unlock()
	if c.tfsrFault == nil {
		c.tfsrFault = f
	} else {
		c.tfsrExtra++
	}
}

// PendingAsyncFault reports whether an async fault is latched without
// consuming it.
func (c *Context) PendingAsyncFault() bool {
	c.tfsrMu.Lock()
	defer c.tfsrMu.Unlock()
	return c.tfsrFault != nil
}

// TakeAsyncFault consumes and returns the latched fault, stamping it with
// the backtrace of the *reporting* site (reportPC) rather than the faulting
// site — this is precisely the diagnostic imprecision of asynchronous MTE
// the paper demonstrates in Figure 4c. It returns nil when nothing is
// pending.
func (c *Context) TakeAsyncFault(reportPC string) *mte.Fault {
	c.tfsrMu.Lock()
	f := c.tfsrFault
	c.tfsrFault = nil
	c.tfsrExtra = 0
	c.tfsrMu.Unlock()
	if f == nil {
		return nil
	}
	f.Async = true
	f.PC = reportPC
	f.Backtrace = append([]string{reportPC}, c.Backtrace()...)
	f.Thread = c.name
	return f
}

// AsyncFaultCount returns the total number of async faults ever latched on
// this thread, including coalesced ones. Useful for tests and statistics.
func (c *Context) AsyncFaultCount() int64 { return c.asyncTotal.Load() }

// Syscall simulates the thread performing a system call named name (for
// example "getuid" or "write"). On real hardware running in asynchronous
// mode, the kernel checks TFSR on every entry from userspace and delivers a
// deferred SIGSEGV there; Syscall models that synchronization point and
// returns the deferred fault, if any.
func (c *Context) Syscall(name string) *mte.Fault {
	if c.CheckMode() != mte.TCFAsync {
		return nil
	}
	return c.TakeAsyncFault(name + "+4 (libc.so)")
}
