package analysis

import (
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// Materialize turns a behavioural summary into an executable native body —
// the exact contract siteVerdict reasons about: 1-byte accesses at MinOff
// and MaxOff relative to the payload begin. It is the bridge both the
// static/dynamic differential oracle (internal/fuzz) and the serving layer
// (internal/pool) use to run program files under a real protection scheme.
func (s NativeSummary) Materialize() func(*jni.Env, *vm.Object) error {
	return func(e *jni.Env, arr *vm.Object) error {
		if s.Kind == jni.CriticalNative {
			// @CriticalNative code cannot use JNIEnv handout interfaces; it
			// reaches the heap through a raw untagged pointer, and because
			// the trampoline never arms checking, no tag is ever checked.
			s.touch(e, mte.MakePtr(arr.DataBegin(), 0))
			return nil
		}
		ptr, err := e.GetIntArrayElements(arr)
		if err != nil {
			return err
		}
		if s.UseAfterRelease {
			if err := e.ReleaseIntArrayElements(arr, ptr, jni.ReleaseDefault); err != nil {
				return err
			}
			s.touch(e, ptr) // stale pointer: the region's tags are gone
			return nil
		}
		if s.ForgeTag {
			// Mutate tag bits 56-59 without irg. XOR with a fixed nonzero
			// nibble guarantees the forged tag differs from the issued one.
			s.touch(e, ptr.WithTag(ptr.Tag()^0x8))
		} else {
			s.touch(e, ptr)
		}
		return e.ReleaseIntArrayElements(arr, ptr, jni.ReleaseDefault)
	}
}

// touch performs the summary's byte accesses. A synchronous fault panics out
// through the Env helper and is caught by the trampoline, so a faulting
// first access suppresses the second — matching real sync-mode MTE.
//
// DamageOps repeats the MinOff access after the primary touch sequence: the
// "keep working" shape the red-team window attacks use. Under sync TCF a
// faulting primary access suppresses the repeats, and a safe summary's
// repeats revisit an already-modelled offset, so the static/dynamic fault
// differential is unchanged either way. ConcurrentScan and ManagedRace
// declare properties of the *environment* (a collector thread scanning, a
// managed mutator racing) that a single-threaded materialized body cannot
// stage; they never change the sync tag-fault outcome, which is exactly why
// the temporal domain — not the fault verdict — is what flags them.
func (s NativeSummary) touch(e *jni.Env, base mte.Ptr) {
	if !s.Touches() {
		return
	}
	// The backing array stays on the stack for the common summaries; every
	// served native call runs this.
	var buf [4]int64
	offs := append(buf[:0], s.MinOff)
	if s.MaxOff != s.MinOff {
		offs = append(offs, s.MaxOff)
	}
	for i := 0; i < s.DamageOps; i++ {
		offs = append(offs, s.MinOff)
	}
	for _, off := range offs {
		p := base.Add(off)
		if s.Write {
			e.StoreByte(p, 0x5A)
		} else {
			_ = e.LoadByte(p)
		}
	}
}
