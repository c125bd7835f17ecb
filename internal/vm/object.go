package vm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"mte4jni/internal/mte"
)

// HeaderSize is the size of the object header placed at the start of every
// heap object: class id, flags, element count and an identity-hash slot —
// a simplified ART object layout.
const HeaderSize = 16

// Class identifies an object's type. The simulated runtime only needs the
// classes JNI raw-pointer interfaces touch: the seven primitive array
// classes, java.lang.String, and a plain object for completeness.
type Class struct {
	// ID is the value stored in object headers.
	ID uint32
	// Name is the Java descriptor-ish name, e.g. "int[]" or
	// "java.lang.String".
	Name string
	// Elem is the element kind for arrays and for String (KindChar).
	Elem Kind
	// Array is true for the seven primitive array classes.
	Array bool
	// String is true for java.lang.String.
	String bool
}

// Object is the runtime's handle to one Java heap object. The authoritative
// data lives in simulated memory; Object caches the immutable layout facts
// (address, class, length) and carries the pin count that keeps the GC away
// while native code holds a raw pointer.
type Object struct {
	vm     *VM
	class  *Class
	addr   mte.Addr
	length int
	// pins counts outstanding critical acquisitions; a pinned object is a
	// GC root and cannot be swept (ART pins arrays handed out via
	// GetPrimitiveArrayCritical the same way).
	pins atomic.Int32
}

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Addr returns the base address of the object header.
func (o *Object) Addr() mte.Addr { return o.addr }

// Len returns the element count for arrays and strings, 0 otherwise.
func (o *Object) Len() int { return o.length }

// ElemSize returns the element size in bytes for arrays and strings.
func (o *Object) ElemSize() int { return o.class.Elem.Size() }

// DataBegin returns the address of the first element, just past the header.
func (o *Object) DataBegin() mte.Addr { return o.addr + HeaderSize }

// DataEnd returns one past the last element.
func (o *Object) DataEnd() mte.Addr {
	return o.DataBegin() + mte.Addr(o.length*o.ElemSize())
}

// DataSize returns the payload size in bytes.
func (o *Object) DataSize() int { return o.length * o.ElemSize() }

// Pin marks the object as held by native code; the GC will not sweep it.
func (o *Object) Pin() { o.pins.Add(1) }

// Unpin releases one Pin. Unpinning below zero is a runtime bug and panics.
func (o *Object) Unpin() {
	if o.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("vm: unbalanced Unpin on %s@%v", o.class.Name, o.addr))
	}
}

// Pinned reports whether any native holder pins the object.
func (o *Object) Pinned() bool { return o.pins.Load() > 0 }

// String implements fmt.Stringer for debug output.
func (o *Object) String() string {
	return fmt.Sprintf("%s@%v(len=%d)", o.class.Name, o.addr, o.length)
}

// writeHeader stamps the object header into simulated memory.
func (o *Object) writeHeader() error {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], o.class.ID)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(o.length))
	return o.vm.JavaHeap.Mapping().WriteRaw(o.addr, hdr[:])
}

// elemAddr returns the address of element i, bounds-checked: this is the
// managed-code path, where Java's own bounds checking applies.
func (o *Object) elemAddr(i int) (mte.Addr, error) {
	if i < 0 || i >= o.length {
		return 0, fmt.Errorf("vm: ArrayIndexOutOfBoundsException: index %d, length %d", i, o.length)
	}
	return o.DataBegin() + mte.Addr(i*o.ElemSize()), nil
}

// SetElem stores a primitive value (widened to uint64 bits) at index i via
// the managed-code path (bounds-checked, untagged raw access — the JVM's
// own view of its heap).
func (o *Object) SetElem(i int, bits uint64) error {
	a, err := o.elemAddr(i)
	if err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	return o.vm.JavaHeap.Mapping().WriteRaw(a, buf[:o.ElemSize()])
}

// GetElem loads the primitive value at index i as raw bits.
func (o *Object) GetElem(i int) (uint64, error) {
	a, err := o.elemAddr(i)
	if err != nil {
		return 0, err
	}
	var buf [8]byte
	if err := o.vm.JavaHeap.Mapping().ReadRaw(a, buf[:o.ElemSize()]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// GetIntUnchecked loads element i of an int array with no bounds check —
// the landing site for the interpreter's elided array accesses, reachable
// only when the screening proof discharged the guard (i proven within
// [0, Len) by the interval analysis). ReadRaw errors cannot occur for an
// in-payload element and are swallowed to keep the guard-free path lean; an
// out-of-proof index here is a proof-compiler bug that the elision audit
// and the fuzz witness exist to catch.
func (o *Object) GetIntUnchecked(i int) int32 {
	var buf [4]byte
	a := o.DataBegin() + mte.Addr(i*4)
	_ = o.vm.JavaHeap.Mapping().ReadRaw(a, buf[:])
	return int32(binary.LittleEndian.Uint32(buf[:]))
}

// SetIntUnchecked stores element i of an int array with no bounds check;
// see GetIntUnchecked for the reachability contract.
func (o *Object) SetIntUnchecked(i int, v int32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(v))
	a := o.DataBegin() + mte.Addr(i*4)
	_ = o.vm.JavaHeap.Mapping().WriteRaw(a, buf[:])
}

// SetInt and GetInt are convenience accessors for the most common test
// arrays.
func (o *Object) SetInt(i int, v int32) error { return o.SetElem(i, uint64(uint32(v))) }

// GetInt loads element i of an int array.
func (o *Object) GetInt(i int) (int32, error) {
	bits, err := o.GetElem(i)
	return int32(uint32(bits)), err
}
