package guardedcopy

import (
	"testing"
	"testing/quick"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// TestPropertyRoundTripPreservesPayload: for any payload content and any
// single in-bounds mutation through the copy, the original object after a
// clean release equals the mutated payload — guarded copy is semantically
// transparent for correct native code.
func TestPropertyRoundTripPreservesPayload(t *testing.T) {
	v, err := vm.New(vm.Options{HeapSize: 16 << 20, NativeHeapSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("t")
	c := New(v)

	f := func(payload []byte, mutIdx uint8, mutVal byte) bool {
		if len(payload) == 0 || len(payload) > 512 {
			return true
		}
		arr, err := v.NewArray(vm.KindByte, len(payload))
		if err != nil {
			return true // heap pressure, not a property failure
		}
		if err := v.JavaHeap.Mapping().WriteRaw(arr.DataBegin(), payload); err != nil {
			return false
		}

		p, err := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
		if err != nil {
			return false
		}
		idx := int(mutIdx) % len(payload)
		if err := v.NativeHeap.Mapping().WriteRaw(p.Addr()+mte.Addr(idx), []byte{mutVal}); err != nil {
			return false
		}
		if err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault); err != nil {
			return false
		}
		after := make([]byte, len(payload))
		if err := v.JavaHeap.Mapping().ReadRaw(arr.DataBegin(), after); err != nil {
			return false
		}
		for i := range payload {
			want := payload[i]
			if i == idx {
				want = mutVal
			}
			if after[i] != want {
				return false
			}
		}
		return v.NativeHeap.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAnyNonCanaryRedZoneWriteDetected: any write into either red
// zone whose value differs from the canary at that offset is detected at
// release, with the correct payload-relative offset.
func TestPropertyAnyNonCanaryRedZoneWriteDetected(t *testing.T) {
	v, err := vm.New(vm.Options{HeapSize: 16 << 20, NativeHeapSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("t")
	c := New(v)
	arr, _ := v.NewArray(vm.KindByte, 40)

	f := func(zoneIdx uint8, val byte, front bool) bool {
		idx := int(zoneIdx) % RedZoneSize
		p, err := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
		if err != nil {
			return false
		}
		var at int // payload-relative offset of the write
		zoneBase := p.Addr() + 40
		if front {
			at = -RedZoneSize + idx
			zoneBase = p.Addr() - RedZoneSize
		} else {
			at = 40 + idx
		}
		canary := CanaryAt(idx)
		if err := v.NativeHeap.Mapping().WriteRaw(zoneBase+mte.Addr(idx), []byte{val}); err != nil {
			return false
		}
		relErr := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.JNIAbort)
		if val == canary {
			return relErr == nil
		}
		viol, ok := relErr.(*Violation)
		return ok && viol.Offset == at && viol.Got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
