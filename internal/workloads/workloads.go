// Package workloads implements the 16 CPU workloads used to reproduce the
// paper's §5.4 common-task experiment (Figures 7 and 8). Each workload is
// named after the GeekBench 6 CPU sub-item it stands in for and performs a
// real computation of the same flavour over data held in Java heap arrays
// that native code reaches through the JNI raw-pointer interfaces.
//
// Two access patterns matter for reproducing the paper's observation that
// Clang, Text Processing and PDF Renderer behave worse under MTE+Sync than
// under guarded copy:
//
//   - bulk workloads acquire an array, copy it to native memory in one
//     checked operation, compute natively, and copy results back — so the
//     per-scheme cost is the handout itself (guarded copy pays the copies,
//     MTE pays tagging);
//   - intensive workloads keep the raw pointer and access the Java array
//     element by element through checked loads/stores, so every access pays
//     the MTE check — exactly the "intensive access within a large array"
//     the paper says makes such workloads unsuited to MTE+Sync.
package workloads

import (
	"fmt"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// Pattern classifies a workload's JNI access behaviour.
type Pattern int

const (
	// Bulk workloads use one checked bulk transfer per array per run.
	Bulk Pattern = iota
	// Intensive workloads perform per-element checked accesses.
	Intensive
)

// String names the pattern.
func (p Pattern) String() string {
	if p == Intensive {
		return "intensive"
	}
	return "bulk"
}

// Workload is one GeekBench-style CPU task.
type Workload interface {
	// Name is the GeekBench 6 sub-item name.
	Name() string
	// Pattern reports the JNI access pattern.
	Pattern() Pattern
	// Setup allocates the workload's Java objects via env and copies its
	// seeded input into them. It runs outside the timed region: once per
	// benchmark run, and on every served request. The input bytes
	// themselves are built once per process (see seeded).
	Setup(env *jni.Env) error
	// Run executes one iteration as a native method body. It is invoked
	// inside a JNI trampoline by the driver.
	Run(env *jni.Env) error
	// Verify checks the computation produced a plausible result; used by
	// tests, not benchmarks.
	Verify() error
}

// Scale selects problem sizes: tests use Small, benchmarks Default.
type Scale int

const (
	// ScaleSmall keeps runs in the sub-millisecond range for tests.
	ScaleSmall Scale = iota
	// ScaleDefault is the benchmark size.
	ScaleDefault
)

// All returns the full 16-workload suite at the given scale, in GeekBench's
// listing order.
func All(s Scale) []Workload {
	return []Workload{
		NewFileCompression(s),
		NewNavigation(s),
		NewHTML5Browser(s),
		NewPDFRenderer(s),
		NewPhotoLibrary(s),
		NewClang(s),
		NewTextProcessing(s),
		NewAssetCompression(s),
		NewObjectDetection(s),
		NewBackgroundBlur(s),
		NewHorizonDetection(s),
		NewObjectRemover(s),
		NewHDR(s),
		NewPhotoFilter(s),
		NewRayTracer(s),
		NewStructureFromMotion(s),
	}
}

// ByName finds a workload by its sub-item name.
func ByName(name string, s Scale) (Workload, error) {
	for _, w := range All(s) {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// --- shared helpers ---------------------------------------------------------

// checkpoint polls the execution context bound to env at a workload phase
// boundary (acquire → compute → publish). Kernels stay cancellable without
// per-element checks: the shared acquire/publish helpers call it, and heavy
// compute loops add their own mid-phase calls. Nil-safe and allocation-free
// when no context is bound, so benchmarks are unaffected.
func checkpoint(env *jni.Env) error { return env.Exec().Canceled() }

// acquireBytes obtains a byte[]'s raw pointer, bulk-copies its payload into
// a native buffer, and releases the pointer. It is the canonical bulk-in
// pattern.
func acquireBytes(env *jni.Env, arr *vm.Object) ([]byte, error) {
	if err := checkpoint(env); err != nil {
		return nil, err
	}
	p, err := env.GetByteArrayElements(arr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, arr.Len())
	env.CopyToNative(buf, p)
	if err := env.ReleaseByteArrayElements(arr, p, jni.JNIAbort); err != nil {
		return nil, err
	}
	return buf, nil
}

// publishBytes bulk-copies a native buffer back into a Java byte[].
func publishBytes(env *jni.Env, arr *vm.Object, data []byte) error {
	if err := checkpoint(env); err != nil {
		return err
	}
	p, err := env.GetByteArrayElements(arr)
	if err != nil {
		return err
	}
	env.CopyFromNative(p, data)
	return env.ReleaseByteArrayElements(arr, p, jni.ReleaseDefault)
}

// acquireInts bulk-copies a Java int[] into native memory.
func acquireInts(env *jni.Env, arr *vm.Object) ([]int32, error) {
	if err := checkpoint(env); err != nil {
		return nil, err
	}
	p, err := env.GetIntArrayElements(arr)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, arr.Len()*4)
	env.CopyToNative(raw, p)
	if err := env.ReleaseIntArrayElements(arr, p, jni.JNIAbort); err != nil {
		return nil, err
	}
	out := make([]int32, arr.Len())
	for i := range out {
		out[i] = int32(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
	}
	return out, nil
}

// publishInts bulk-copies native int32 data back into a Java int[].
func publishInts(env *jni.Env, arr *vm.Object, data []int32) error {
	if err := checkpoint(env); err != nil {
		return err
	}
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		u := uint32(v)
		raw[4*i], raw[4*i+1], raw[4*i+2], raw[4*i+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	}
	p, err := env.GetIntArrayElements(arr)
	if err != nil {
		return err
	}
	env.CopyFromNative(p, raw)
	return env.ReleaseIntArrayElements(arr, p, jni.ReleaseDefault)
}

// withCritical acquires arr's payload pointer for the duration of fn — the
// pattern intensive workloads use for per-element checked access.
func withCritical(env *jni.Env, arr *vm.Object, fn func(p mte.Ptr) error) error {
	if err := checkpoint(env); err != nil {
		return err
	}
	p, err := env.GetPrimitiveArrayCritical(arr)
	if err != nil {
		return err
	}
	ferr := fn(p)
	rerr := env.ReleasePrimitiveArrayCritical(arr, p, jni.ReleaseDefault)
	if ferr != nil {
		return ferr
	}
	return rerr
}

// xorshift32 is the deterministic PRNG workloads use to synthesize inputs,
// keeping every run reproducible without package-level state.
type xorshift32 uint32

func (x *xorshift32) next() uint32 {
	v := uint32(*x)
	if v == 0 {
		v = 0x9E3779B9
	}
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift32(v)
	return v
}

// byteN returns a pseudo-random byte below n.
func (x *xorshift32) byteN(n int) byte { return byte(x.next() % uint32(n)) }
