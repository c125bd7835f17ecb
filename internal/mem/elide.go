package mem

import (
	"encoding/binary"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
)

// Guard-free access variants for proof-carrying tag-check elision.
//
// When the static screener (internal/analysis) proves a native call site can
// never raise a tag-check fault, the interpreter arms the env's elision gate
// and accesses flow through these variants instead of the checked ones. They
// skip exactly one thing: the tag compare. Address resolution, the unmapped
// fault, and the protection fault are all retained — those guards protect
// the simulator itself (a remap or a stray pointer must still fail cleanly),
// and keeping them means an invalidated proof can only ever lose the
// *elision*, never memory safety.
//
// Reachability is part of the soundness story: tools/lintrepo restricts
// callers of the *Unguarded family to the elision tier (mem itself, the
// jni gate, the fuzz oracle, and the root bench package), and inside
// internal/jni every call must sit behind the env's elided() gate.

// accessUnguarded is checkAccess minus the tag compare: resolve the mapping
// through the TLB and enforce mapping + protection, then hand the mapping
// back without looking at a single tag byte.
//
//mte4jni:fastpath
func (s *Space) accessUnguarded(ctx *cpu.Context, p mte.Ptr, size int, kind mte.AccessKind) (*Mapping, *mte.Fault) {
	addr := p.Addr()
	m := s.lookup(ctx, addr, size)
	if m == nil {
		return nil, s.newFault(ctx, mte.FaultUnmapped, kind, p, size, p.Tag(), 0)
	}
	var need Prot = ProtRead
	if kind == mte.AccessStore {
		need = ProtWrite
	}
	if m.prot&need == 0 {
		return nil, s.newFault(ctx, mte.FaultProtection, kind, p, size, p.Tag(), 0)
	}
	return m, nil
}

// Load8Unguarded reads one byte with the tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Load8Unguarded(ctx *cpu.Context, p mte.Ptr) (uint8, *mte.Fault) {
	m, f := s.accessUnguarded(ctx, p, 1, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	return m.rpage(off >> dataPageShift)[off&dataPageMask], nil
}

// Store8Unguarded writes one byte with the tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Store8Unguarded(ctx *cpu.Context, p mte.Ptr, v uint8) *mte.Fault {
	m, f := s.accessUnguarded(ctx, p, 1, mte.AccessStore)
	if f != nil {
		return f
	}
	off := uint64(p.Addr() - m.base)
	locked := m.storeLock()
	if pg, in, ok := m.wwindow(off, 1); ok {
		pg[in] = v
	} else {
		m.storeSlow(off, 1, uint64(v))
	}
	m.storeUnlock(locked)
	return nil
}

// Load16Unguarded reads a little-endian 16-bit value, tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Load16Unguarded(ctx *cpu.Context, p mte.Ptr) (uint16, *mte.Fault) {
	m, f := s.accessUnguarded(ctx, p, 2, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	if pg, in, ok := m.rwindow(off, 2); ok {
		return binary.LittleEndian.Uint16(pg[in:]), nil
	}
	return uint16(m.loadSlow(off, 2)), nil
}

// Store16Unguarded writes a little-endian 16-bit value, tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Store16Unguarded(ctx *cpu.Context, p mte.Ptr, v uint16) *mte.Fault {
	m, f := s.accessUnguarded(ctx, p, 2, mte.AccessStore)
	if f != nil {
		return f
	}
	off := uint64(p.Addr() - m.base)
	locked := m.storeLock()
	if pg, in, ok := m.wwindow(off, 2); ok {
		binary.LittleEndian.PutUint16(pg[in:], v)
	} else {
		m.storeSlow(off, 2, uint64(v))
	}
	m.storeUnlock(locked)
	return nil
}

// Load32Unguarded reads a little-endian 32-bit value, tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Load32Unguarded(ctx *cpu.Context, p mte.Ptr) (uint32, *mte.Fault) {
	m, f := s.accessUnguarded(ctx, p, 4, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	if pg, in, ok := m.rwindow(off, 4); ok {
		return binary.LittleEndian.Uint32(pg[in:]), nil
	}
	return uint32(m.loadSlow(off, 4)), nil
}

// Store32Unguarded writes a little-endian 32-bit value, tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Store32Unguarded(ctx *cpu.Context, p mte.Ptr, v uint32) *mte.Fault {
	m, f := s.accessUnguarded(ctx, p, 4, mte.AccessStore)
	if f != nil {
		return f
	}
	off := uint64(p.Addr() - m.base)
	locked := m.storeLock()
	if pg, in, ok := m.wwindow(off, 4); ok {
		binary.LittleEndian.PutUint32(pg[in:], v)
	} else {
		m.storeSlow(off, 4, uint64(v))
	}
	m.storeUnlock(locked)
	return nil
}

// Load64Unguarded reads a little-endian 64-bit value, tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Load64Unguarded(ctx *cpu.Context, p mte.Ptr) (uint64, *mte.Fault) {
	m, f := s.accessUnguarded(ctx, p, 8, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	if pg, in, ok := m.rwindow(off, 8); ok {
		return binary.LittleEndian.Uint64(pg[in:]), nil
	}
	return m.loadSlow(off, 8), nil
}

// Store64Unguarded writes a little-endian 64-bit value, tag compare elided.
//
//mte4jni:fastpath
func (s *Space) Store64Unguarded(ctx *cpu.Context, p mte.Ptr, v uint64) *mte.Fault {
	m, f := s.accessUnguarded(ctx, p, 8, mte.AccessStore)
	if f != nil {
		return f
	}
	off := uint64(p.Addr() - m.base)
	locked := m.storeLock()
	if pg, in, ok := m.wwindow(off, 8); ok {
		binary.LittleEndian.PutUint64(pg[in:], v)
	} else {
		m.storeSlow(off, 8, v)
	}
	m.storeUnlock(locked)
	return nil
}

// CopyOutUnguarded bulk-reads len(dst) bytes with the per-granule SWAR tag
// sweep elided — the span variants are where elision buys the most, since a
// checked copy pays one tag compare per covered granule.
//
//mte4jni:fastpath
func (s *Space) CopyOutUnguarded(ctx *cpu.Context, p mte.Ptr, dst []byte) *mte.Fault {
	m, f := s.accessUnguarded(ctx, p, len(dst), mte.AccessLoad)
	if f != nil {
		return f
	}
	if len(dst) == 0 {
		return nil
	}
	m.readAt(uint64(p.Addr()-m.base), dst)
	return nil
}

// CopyInUnguarded bulk-writes src with the SWAR tag sweep elided.
//
//mte4jni:fastpath
func (s *Space) CopyInUnguarded(ctx *cpu.Context, p mte.Ptr, src []byte) *mte.Fault {
	m, f := s.accessUnguarded(ctx, p, len(src), mte.AccessStore)
	if f != nil {
		return f
	}
	if len(src) == 0 {
		return nil
	}
	locked := m.storeLock()
	m.writeAt(uint64(p.Addr()-m.base), src)
	m.storeUnlock(locked)
	return nil
}

// MoveUnguarded copies n bytes from src to dst with both sides' tag sweeps
// elided. The memmove overlap guarantee and the source-before-destination
// check order of Move are preserved.
//
//mte4jni:fastpath
func (s *Space) MoveUnguarded(ctx *cpu.Context, dst, src mte.Ptr, n int) *mte.Fault {
	sm, f := s.accessUnguarded(ctx, src, n, mte.AccessLoad)
	if f != nil {
		return f
	}
	dm, f := s.accessUnguarded(ctx, dst, n, mte.AccessStore)
	if f != nil {
		return f
	}
	if n == 0 {
		return nil
	}
	locked := dm.storeLock()
	moveAt(dm, uint64(dst.Addr()-dm.base), sm, uint64(src.Addr()-sm.base), uint64(n))
	dm.storeUnlock(locked)
	return nil
}
