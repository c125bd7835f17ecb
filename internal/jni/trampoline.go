package jni

import (
	"fmt"

	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// NativeKind classifies a native method the way ART's annotations do
// (§4.3): the kind decides which trampoline runs and therefore where the
// TCO-setting code lives.
type NativeKind int

const (
	// Regular native methods go through the generic trampoline, which also
	// performs the Runnable→Native thread state transition; the paper
	// inserts the TCO write into that transition function.
	Regular NativeKind = iota
	// FastNative methods (@FastNative) skip the state transition, so the
	// TCO write sits directly in their (specifically compiled or generic)
	// trampoline.
	FastNative
	// CriticalNative methods (@CriticalNative) can never touch Java heap
	// objects, so the paper leaves them alone: no TCO write at all.
	CriticalNative
)

// String names the kind after its annotation.
func (k NativeKind) String() string {
	switch k {
	case Regular:
		return "regular"
	case FastNative:
		return "@FastNative"
	case CriticalNative:
		return "@CriticalNative"
	default:
		return fmt.Sprintf("NativeKind(%d)", int(k))
	}
}

// NativeFunc is the body of a native method. It may only touch Java heap
// memory through env's raw-pointer helpers; a synchronous tag-check fault
// aborts it via panic, which the trampoline converts into the returned
// *mte.Fault, modelling a SIGSEGV crash.
type NativeFunc func(env *Env) error

// CallNative invokes a native method through the appropriate trampoline.
//
// The returned values separate the two ways a native call ends abnormally:
// fault is the detected memory-safety violation (MTE sync fault at the
// faulting instruction, MTE async fault surfaced at a syscall or at the
// trampoline exit's synchronization point, or — for copying checkers — nil
// here because guarded copy only detects at Release, which reports through
// the Release interface's error); err is any ordinary error returned by the
// native body or the runtime.
func (e *Env) CallNative(name string, kind NativeKind, fn NativeFunc) (fault *mte.Fault, err error) {
	// Native entry is a cancellation checkpoint: a request whose context has
	// already ended never pays for the trampoline transition or the native
	// body. The poll is nil-safe and allocation-free when no context is
	// bound, so detached execution (benchmarks, tests) is unaffected.
	if cerr := e.execCtx.Canceled(); cerr != nil {
		return nil, cerr
	}
	t := e.thread

	// Entry trampoline. The previous TCO value and thread state are saved
	// and restored rather than reset, so re-entrant stacks (native → Java
	// → native) keep the outer native frame protected after the inner one
	// returns.
	prevTCO := t.Ctx().TCO()
	var prevState vm.ThreadState
	var popOuter func()
	switch kind {
	case Regular:
		popOuter = t.Ctx().Enter("art_quick_generic_jni_trampoline+152 (libart.so)")
		prevState = t.SetState(vm.StateNative)
		// The paper puts the TCO write inside the thread state transition
		// function for regular natives (§4.3).
		if e.mteThreadControl {
			t.Ctx().SetTCO(false)
		}
	case FastNative:
		popOuter = t.Ctx().Enter("art_jni_trampoline (@FastNative)")
		// No state transition; TCO is written directly in the trampoline.
		if e.mteThreadControl {
			t.Ctx().SetTCO(false)
		}
	case CriticalNative:
		popOuter = t.Ctx().Enter("art_jni_trampoline (@CriticalNative)")
		// Never touches the heap: checking stays off.
	}
	popFrame := t.Ctx().Enter(e.frameLabel(name))
	if e.tracing() {
		e.trace(TraceEvent{Kind: TraceNativeEnter, Iface: name})
	}

	defer func() {
		popFrame()
		// Exit trampoline: restore TCO and thread state.
		if kind != CriticalNative && e.mteThreadControl {
			t.Ctx().SetTCO(prevTCO)
		}
		if kind == Regular {
			t.SetState(prevState)
		}
		popOuter()

		if r := recover(); r != nil {
			f, ok := r.(*mte.Fault)
			if !ok {
				panic(r) // not a simulated signal; let it crash the test
			}
			fault = f
			err = nil
			if e.tracing() {
				e.trace(TraceEvent{Kind: TraceFault, Iface: name, Err: f.Error()})
			}
			return
		}
		// Returning to managed code is a synchronization point (the state
		// transition involves kernel interaction); deferred async faults
		// that never met a syscall inside the native body surface here.
		if fault == nil && t.Ctx().CheckMode() == mte.TCFAsync {
			if f := t.Ctx().TakeAsyncFault("art_quick_generic_jni_trampoline+200 (libart.so)"); f != nil {
				fault = f
			}
		}
		if e.tracing() {
			if fault != nil {
				e.trace(TraceEvent{Kind: TraceFault, Iface: name, Err: fault.Error()})
			}
			e.trace(TraceEvent{Kind: TraceNativeExit, Iface: name})
		}
	}()

	err = fn(e)
	return fault, err
}

// frameLabel returns the simulated native frame label of method name,
// built once per name and env.
func (e *Env) frameLabel(name string) string {
	if l, ok := e.frameLabels[name]; ok {
		return l
	}
	if e.frameLabels == nil {
		e.frameLabels = make(map[string]string)
	}
	l := "Java_com_example_app_MainActivity_" + name + "+0"
	e.frameLabels[name] = l
	return l
}
