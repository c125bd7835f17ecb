package jni

import (
	"fmt"

	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// This file implements the paper's Table 1: every JNI interface that
// returns a raw pointer into Java heap memory, plus its release partner.
// All of them funnel through acquire/release, where the protection scheme
// (Checker) intervenes — exactly the modification point §4.2 describes.

// acquire is the common Get path: validate, run the checker, pin, record.
func (e *Env) acquire(obj *vm.Object, iface string, freeObj bool, match *vm.Object) (mte.Ptr, error) {
	begin, end := obj.DataBegin(), obj.DataEnd()
	p, err := e.checker.Acquire(e.thread, obj, begin, end)
	if err != nil {
		return 0, fmt.Errorf("jni: %s: %w", iface, err)
	}
	e.recordAcquisition(acquisition{
		obj: obj, iface: iface, ptr: p, begin: begin, end: end,
		match: match, freeObj: freeObj,
	})
	if e.tracing() {
		e.trace(TraceEvent{Kind: TraceGet, Iface: iface, Object: obj.String(), Ptr: p,
			Begin: begin, End: end})
	}
	return p, nil
}

// release is the common Release path: match the ledger, run the checker,
// unpin, destroy temporaries.
func (e *Env) release(match *vm.Object, iface string, p mte.Ptr, mode ReleaseMode) error {
	a, err := e.takeAcquisition(match, iface, p)
	if err != nil {
		return err
	}
	// Releasing a handout retires the facts any active elision proof depended
	// on (the checker may retag the payload right here), so the rest of this
	// native call falls back to checked access.
	e.retireElision()
	checkErr := e.checker.Release(e.thread, a.obj, a.ptr, a.begin, a.end, mode)
	if mode == JNICommit && checkErr == nil {
		// JNI_COMMIT: the content was written back but the pointer remains
		// valid, so the acquisition (pin included) stays on the ledger for
		// the eventual final release.
		e.mu.Lock()
		e.acquired = append(e.acquired, a)
		e.mu.Unlock()
		return nil
	}
	a.obj.Unpin()
	if a.freeObj {
		if err := e.vm.FreeObject(a.obj); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	if e.tracing() {
		errText := ""
		if checkErr != nil {
			errText = checkErr.Error()
		}
		e.trace(TraceEvent{Kind: TraceRelease, Iface: iface, Object: a.obj.String(), Ptr: a.ptr, Err: errText})
	}
	if checkErr != nil {
		return fmt.Errorf("jni: %s: %w", iface, checkErr)
	}
	return nil
}

// requireArray validates that obj is a primitive array (CheckJNI catches
// class mismatches here; without CheckJNI a wrong type is still an error in
// the simulation, since there is no way to reinterpret the handle).
func (e *Env) requireArray(obj *vm.Object, iface string, kind *vm.Kind) error {
	if obj == nil {
		return fmt.Errorf("jni: %s: null array", iface)
	}
	if !obj.Class().Array {
		return fmt.Errorf("jni: %s: %s is not a primitive array", iface, obj)
	}
	if kind != nil && obj.Class().Elem != *kind {
		return fmt.Errorf("jni: %s: expected %s[] but got %s", iface, *kind, obj)
	}
	return nil
}

// requireString validates that obj is a java.lang.String.
func (e *Env) requireString(obj *vm.Object, iface string) error {
	if obj == nil {
		return fmt.Errorf("jni: %s: null string", iface)
	}
	if !obj.Class().String {
		return fmt.Errorf("jni: %s: %s is not a java.lang.String", iface, obj)
	}
	return nil
}

// --- Critical interfaces ---------------------------------------------------

// GetPrimitiveArrayCritical returns a raw pointer to the array payload
// (Table 1 row 2). The array is pinned until release.
func (e *Env) GetPrimitiveArrayCritical(arr *vm.Object) (mte.Ptr, error) {
	if err := e.requireArray(arr, "GetPrimitiveArrayCritical", nil); err != nil {
		return 0, err
	}
	return e.acquire(arr, "GetPrimitiveArrayCritical", false, nil)
}

// ReleasePrimitiveArrayCritical releases a pointer obtained from
// GetPrimitiveArrayCritical.
func (e *Env) ReleasePrimitiveArrayCritical(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.release(arr, "ReleasePrimitiveArrayCritical", p, mode)
}

// GetStringCritical returns a raw pointer to the string's UTF-16 payload
// (Table 1 row 1).
func (e *Env) GetStringCritical(str *vm.Object) (mte.Ptr, error) {
	if err := e.requireString(str, "GetStringCritical"); err != nil {
		return 0, err
	}
	return e.acquire(str, "GetStringCritical", false, nil)
}

// ReleaseStringCritical releases a pointer obtained from GetStringCritical.
func (e *Env) ReleaseStringCritical(str *vm.Object, p mte.Ptr) error {
	return e.release(str, "ReleaseStringCritical", p, ReleaseDefault)
}

// --- String chars ----------------------------------------------------------

// GetStringChars returns a raw pointer to the string's UTF-16 code units
// (Table 1 row 3).
func (e *Env) GetStringChars(str *vm.Object) (mte.Ptr, error) {
	if err := e.requireString(str, "GetStringChars"); err != nil {
		return 0, err
	}
	return e.acquire(str, "GetStringChars", false, nil)
}

// ReleaseStringChars releases a pointer obtained from GetStringChars.
func (e *Env) ReleaseStringChars(str *vm.Object, p mte.Ptr) error {
	return e.release(str, "ReleaseStringChars", p, ReleaseDefault)
}

// GetStringUTFChars returns a raw pointer to a NUL-terminated Modified
// UTF-8 copy of the string (Table 1 row 4), plus the byte length excluding
// the terminator. The copy lives in the Java heap so the protection scheme
// covers it like any other payload.
func (e *Env) GetStringUTFChars(str *vm.Object) (mte.Ptr, int, error) {
	if err := e.requireString(str, "GetStringUTFChars"); err != nil {
		return 0, 0, err
	}
	units := make([]uint16, str.Len())
	for i := range units {
		bits, err := str.GetElem(i)
		if err != nil {
			return 0, 0, err
		}
		units[i] = uint16(bits)
	}
	utf := EncodeModifiedUTF8(units)
	buf, err := e.vm.NewArray(vm.KindByte, len(utf)+1) // +1 for NUL
	if err != nil {
		return 0, 0, fmt.Errorf("jni: GetStringUTFChars: %w", err)
	}
	// The trailing byte is already zero.
	if err := e.vm.JavaHeap.Mapping().WriteRaw(buf.DataBegin(), utf); err != nil {
		return 0, 0, err
	}
	p, err := e.acquire(buf, "GetStringUTFChars", true, str)
	if err != nil {
		return 0, 0, err
	}
	return p, len(utf), nil
}

// ReleaseStringUTFChars releases a pointer obtained from GetStringUTFChars,
// destroying the temporary buffer.
func (e *Env) ReleaseStringUTFChars(str *vm.Object, p mte.Ptr) error {
	return e.release(str, "ReleaseStringUTFChars", p, JNIAbort)
}

// --- Get<Type>ArrayElements ------------------------------------------------

// GetArrayElements returns a raw pointer to a primitive array's elements,
// validating the element kind (Table 1 row 5 — the Get*ArrayElements
// family).
func (e *Env) GetArrayElements(kind vm.Kind, arr *vm.Object) (mte.Ptr, error) {
	iface := elementsIface(kind, false)
	if err := e.requireArray(arr, iface, &kind); err != nil {
		return 0, err
	}
	return e.acquire(arr, iface, false, nil)
}

// ReleaseArrayElements releases a pointer obtained from GetArrayElements.
func (e *Env) ReleaseArrayElements(kind vm.Kind, arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.release(arr, elementsIface(kind, true), p, mode)
}

// elementsNames renders kind's Get and Release<Type>ArrayElements names.
func elementsNames(kind vm.Kind) [2]string {
	return [2]string{"Get" + kind.JNIName() + "ArrayElements", "Release" + kind.JNIName() + "ArrayElements"}
}

// elementsIfaces holds every primitive kind's names, rendered once: handing
// out an array is the per-call hot path of Figure 5.
var elementsIfaces = func() map[vm.Kind][2]string {
	m := make(map[vm.Kind][2]string, len(vm.Kinds))
	for _, k := range vm.Kinds {
		m[k] = elementsNames(k)
	}
	return m
}()

// elementsIface names the Get (release false) or Release<Type>ArrayElements
// interface for kind.
func elementsIface(kind vm.Kind, release bool) string {
	names, ok := elementsIfaces[kind]
	if !ok {
		names = elementsNames(kind)
	}
	if release {
		return names[1]
	}
	return names[0]
}

// GetIntArrayElements is the int instantiation of Get*ArrayElements.
func (e *Env) GetIntArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindInt, arr)
}

// ReleaseIntArrayElements is the int instantiation of Release*ArrayElements.
func (e *Env) ReleaseIntArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindInt, arr, p, mode)
}

// GetByteArrayElements is the byte instantiation of Get*ArrayElements.
func (e *Env) GetByteArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindByte, arr)
}

// ReleaseByteArrayElements is the byte instantiation of
// Release*ArrayElements.
func (e *Env) ReleaseByteArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindByte, arr, p, mode)
}

// GetCharArrayElements is the char instantiation of Get*ArrayElements.
func (e *Env) GetCharArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindChar, arr)
}

// ReleaseCharArrayElements is the char instantiation of
// Release*ArrayElements.
func (e *Env) ReleaseCharArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindChar, arr, p, mode)
}

// GetShortArrayElements is the short instantiation of Get*ArrayElements.
func (e *Env) GetShortArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindShort, arr)
}

// ReleaseShortArrayElements is the short instantiation of
// Release*ArrayElements.
func (e *Env) ReleaseShortArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindShort, arr, p, mode)
}

// GetLongArrayElements is the long instantiation of Get*ArrayElements.
func (e *Env) GetLongArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindLong, arr)
}

// ReleaseLongArrayElements is the long instantiation of
// Release*ArrayElements.
func (e *Env) ReleaseLongArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindLong, arr, p, mode)
}

// GetFloatArrayElements is the float instantiation of Get*ArrayElements.
func (e *Env) GetFloatArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindFloat, arr)
}

// ReleaseFloatArrayElements is the float instantiation of
// Release*ArrayElements.
func (e *Env) ReleaseFloatArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindFloat, arr, p, mode)
}

// GetDoubleArrayElements is the double instantiation of Get*ArrayElements.
func (e *Env) GetDoubleArrayElements(arr *vm.Object) (mte.Ptr, error) {
	return e.GetArrayElements(vm.KindDouble, arr)
}

// ReleaseDoubleArrayElements is the double instantiation of
// Release*ArrayElements.
func (e *Env) ReleaseDoubleArrayElements(arr *vm.Object, p mte.Ptr, mode ReleaseMode) error {
	return e.ReleaseArrayElements(vm.KindDouble, arr, p, mode)
}

// --- Array regions ---------------------------------------------------------

// checkRegion validates a [start, start+count) element region.
func checkRegion(arr *vm.Object, iface string, start, count int) error {
	if start < 0 || count < 0 || start+count > arr.Len() {
		return fmt.Errorf("jni: %s: ArrayIndexOutOfBoundsException: region [%d,%d) of length %d",
			iface, start, start+count, arr.Len())
	}
	return nil
}

// GetArrayRegion copies count elements starting at start into dst, which
// must be count*elemSize bytes (Table 1 row 6 — the Get*ArrayRegion
// family). Regions are bounds-checked by the runtime, so they are safe by
// construction; they are part of the surface because the paper lists them.
func (e *Env) GetArrayRegion(kind vm.Kind, arr *vm.Object, start, count int, dst []byte) error {
	iface := "Get" + kind.JNIName() + "ArrayRegion"
	if err := e.requireArray(arr, iface, &kind); err != nil {
		return err
	}
	if err := checkRegion(arr, iface, start, count); err != nil {
		return err
	}
	if len(dst) != count*kind.Size() {
		return fmt.Errorf("jni: %s: buffer is %d bytes, want %d", iface, len(dst), count*kind.Size())
	}
	src := arr.DataBegin() + mte.Addr(start*kind.Size())
	return e.vm.JavaHeap.Mapping().ReadRaw(src, dst)
}

// SetArrayRegion copies src into count elements starting at start.
func (e *Env) SetArrayRegion(kind vm.Kind, arr *vm.Object, start, count int, src []byte) error {
	iface := "Set" + kind.JNIName() + "ArrayRegion"
	if err := e.requireArray(arr, iface, &kind); err != nil {
		return err
	}
	if err := checkRegion(arr, iface, start, count); err != nil {
		return err
	}
	if len(src) != count*kind.Size() {
		return fmt.Errorf("jni: %s: buffer is %d bytes, want %d", iface, len(src), count*kind.Size())
	}
	dst := arr.DataBegin() + mte.Addr(start*kind.Size())
	return e.vm.JavaHeap.Mapping().WriteRaw(dst, src)
}

// --- Allocation and introspection helpers ----------------------------------

// NewIntArray allocates an int[] and registers a local reference.
func (e *Env) NewIntArray(length int) (*vm.Object, error) {
	return e.NewArray(vm.KindInt, length)
}

// NewArray allocates a primitive array and registers a local reference.
func (e *Env) NewArray(kind vm.Kind, length int) (*vm.Object, error) {
	arr, err := e.vm.NewArray(kind, length)
	if err != nil {
		return nil, err
	}
	e.thread.AddLocalRef(arr)
	return arr, nil
}

// NewString allocates a java.lang.String and registers a local reference.
func (e *Env) NewString(s string) (*vm.Object, error) {
	obj, err := e.vm.NewString(s)
	if err != nil {
		return nil, err
	}
	e.thread.AddLocalRef(obj)
	return obj, nil
}

// GetArrayLength returns the element count of an array.
func (e *Env) GetArrayLength(arr *vm.Object) (int, error) {
	if err := e.requireArray(arr, "GetArrayLength", nil); err != nil {
		return 0, err
	}
	return arr.Len(), nil
}

// GetStringLength returns the UTF-16 length of a string.
func (e *Env) GetStringLength(str *vm.Object) (int, error) {
	if err := e.requireString(str, "GetStringLength"); err != nil {
		return 0, err
	}
	return str.Len(), nil
}

// GetStringUTFLength returns the Modified UTF-8 byte length of a string.
func (e *Env) GetStringUTFLength(str *vm.Object) (int, error) {
	if err := e.requireString(str, "GetStringUTFLength"); err != nil {
		return 0, err
	}
	units := make([]uint16, str.Len())
	for i := range units {
		bits, err := str.GetElem(i)
		if err != nil {
			return 0, err
		}
		units[i] = uint16(bits)
	}
	return len(EncodeModifiedUTF8(units)), nil
}

// DeleteLocalRef drops a local reference created by the New* helpers.
func (e *Env) DeleteLocalRef(obj *vm.Object) { e.thread.DeleteLocalRef(obj) }
