package mem

import (
	"encoding/binary"
	"math/bits"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
)

// This file is the tag-check engine: the simulated load/store unit that
// native code uses to touch Java heap memory through raw (possibly tagged)
// pointers. Faults are reported the way the corresponding hardware + kernel
// combination reports them:
//
//   - Unmapped or protection violations are always synchronous.
//   - Tag mismatches in sync mode return a *mte.Fault carrying the precise
//     faulting PC and backtrace; the access does not take effect (a store is
//     suppressed, a load returns zero).
//   - Tag mismatches in async mode are latched on the thread's TFSR and the
//     access proceeds; the fault surfaces later at a synchronization point
//     (cpu.Context.Syscall or the JNI trampoline exit).
//   - With checking disabled (mode none, or TCO set, or an untagged
//     mapping) accesses are performed directly.
//
// The engine is built for the fault-free case, which is what every paper
// figure measures (DESIGN.md "Fast-path engine"):
//
//   - Address resolution goes through the thread's TLB (cpu.TLB) with a
//     binary-searched snapshot as the miss path, instead of a linear scan.
//   - Tag checks use a single byte compare when the access stays inside one
//     granule (the Load8..Load64 common case) and SWAR word-at-a-time
//     comparison — eight granule tags against a tag-replicated uint64 — for
//     CopyIn/CopyOut/Move spans.
//   - Fault construction (and its Backtrace capture) is outlined into
//     noinline slow-path helpers, so the fault-free path allocates nothing;
//     TestCheckedAccessAllocs pins that property.
//
// The pre-optimization engine survives verbatim as ReferenceEngine
// (reference.go); the fuzz differential test drives both over randomized
// access streams and requires behavioural identity.

// replicate8 spreads a byte to all eight lanes of a uint64, the SWAR
// broadcast used by both the tag compare and the tag fill.
//
//mte4jni:fastpath
func replicate8(b uint8) uint64 { return uint64(b) * 0x0101_0101_0101_0101 }

// tagMismatchIndex returns the index of the first tag byte in span that
// differs from want, or -1 when all match. Eight granule tags are compared
// per step against the tag-replicated word; XOR leaves a nonzero byte lane
// exactly at each mismatch, and the lowest set lane is the first faulting
// granule — the one hardware reports.
//
//mte4jni:fastpath
func tagMismatchIndex(span []uint8, want uint8) int {
	w := replicate8(want)
	i := 0
	for ; i+8 <= len(span); i += 8 {
		if x := binary.LittleEndian.Uint64(span[i:]) ^ w; x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for ; i < len(span); i++ {
		if span[i] != want {
			return i
		}
	}
	return -1
}

// lookup resolves the mapping fully containing [addr, addr+size) through the
// thread's TLB, falling back to the snapshot binary search and refilling the
// TLB on a miss. It returns nil when no mapping contains the whole access.
// See the Space doc comment for the epoch contract.
//
//mte4jni:fastpath
func (s *Space) lookup(ctx *cpu.Context, addr mte.Addr, size int) *Mapping {
	tlb := ctx.TLB()
	if epoch := s.epoch.Load(); epoch != tlb.Epoch {
		tlb.Flush(epoch)
	}
	if e := tlb.Lookup(uint64(addr), size); e != nil {
		return e.Ref.(*Mapping)
	}
	m, ok := s.Resolve(addr)
	if !ok || !m.contains(addr, size) {
		return nil
	}
	tlb.Insert(uint64(m.base), uint64(m.End()), m)
	return m
}

// checkAccess validates one access and returns (mapping, fault). A non-nil
// fault means the access must not take effect. Async tag mismatches are
// latched here and reported as nil so the caller proceeds.
//
//mte4jni:fastpath
func (s *Space) checkAccess(ctx *cpu.Context, p mte.Ptr, size int, kind mte.AccessKind) (*Mapping, *mte.Fault) {
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
	// The thread's mode is tested first, so the none and guarded schemes
	// never load the mapping's tag directory.
	if !ctx.Checking() || !m.Tagged() {
		return m, nil
	}
	want := uint8(p.Tag())
	gi := m.granuleIndex(addr)
	if off := uint64(addr) & (mte.GranuleSize - 1); off+uint64(size) <= mte.GranuleSize {
		// Single-granule fast path: the access does not cross a granule
		// boundary, so one directory load plus one tag compare decides it —
		// the common case for all of Load8..Load64/Store8..Store64. Uniform
		// and private pages are both byte arrays; the compare does not care.
		if size == 0 && off == 0 {
			// A zero-length access starting on a granule boundary covers no
			// granule at all and is never tag-checked (GranuleRange yields an
			// empty span); unaligned zero-length accesses still check the
			// granule they start in, as the reference engine always has.
			return m, nil
		}
		if got := m.tpage(gi >> tagPageShift)[gi&tagPageMask]; got != want {
			return s.tagFault(ctx, m, p, size, kind, mte.Tag(got))
		}
		return m, nil
	}
	// Span path: per tag page, SWAR compare of the covered granule tags —
	// same word sweep as before, segmented at page boundaries, with one new
	// fast-out: a directory entry that *is* the canonical page of the wanted
	// tag matches a whole page without reading a tag byte. Mismatch order
	// is preserved (pages ascend, the sweep finds the first bad lane), so
	// the faulting granule is identical to the reference engine's. size >= 1
	// here (a zero-size span cannot cross a granule boundary), so
	// addr+size-1 is the last touched byte.
	lastGi := m.granuleIndex(addr + mte.Addr(size) - 1)
	match := canonical(want)
	firstPage, lastPage := gi>>tagPageShift, lastGi>>tagPageShift
	for pi := firstPage; pi <= lastPage; pi++ {
		pg := m.tpage(pi)
		if pg == match {
			continue
		}
		segLo, segHi := 0, tagPageGranules
		if pi == firstPage {
			segLo = gi & tagPageMask
		}
		if pi == lastPage {
			segHi = lastGi&tagPageMask + 1
		}
		if i := tagMismatchIndex(pg[segLo:segHi], want); i >= 0 {
			return s.tagFault(ctx, m, p, size, kind, mte.Tag(pg[segLo+i]))
		}
	}
	return m, nil
}

// tagFault is the outlined tag-mismatch slow path: it builds the fault
// record (capturing the backtrace) and either latches it (async mode,
// access proceeds) or reports it (sync mode, access suppressed). Keeping it
// out of line keeps checkAccess free of fault-object construction — and of
// allocation — when no fault fires.
//
//go:noinline
func (s *Space) tagFault(ctx *cpu.Context, m *Mapping, p mte.Ptr, size int, kind mte.AccessKind, got mte.Tag) (*Mapping, *mte.Fault) {
	f := s.newFault(ctx, mte.FaultTagMismatch, kind, p, size, p.Tag(), got)
	if ctx.CheckMode() == mte.TCFAsync {
		// Asynchronous mode: latch and let the access proceed
		// (paper §2.1: "allows the program to continue execution
		// even after detecting a tag mismatch").
		ctx.LatchAsyncFault(f)
		return m, nil
	}
	return nil, f
}

// newFault builds a fault record stamped with the thread's current simulated
// PC and backtrace. It is deliberately not inlined: Backtrace() allocates,
// and this must only ever run when a fault actually fires.
//
//go:noinline
func (s *Space) newFault(ctx *cpu.Context, kind mte.FaultKind, access mte.AccessKind, p mte.Ptr, size int, ptrTag, memTag mte.Tag) *mte.Fault {
	return &mte.Fault{
		Kind:      kind,
		Access:    access,
		Ptr:       p,
		Size:      size,
		PtrTag:    ptrTag,
		MemTag:    memTag,
		PC:        ctx.PC(),
		Backtrace: ctx.Backtrace(),
		Thread:    ctx.Name(),
	}
}

// Load8 reads one byte through a checked access.
//
//mte4jni:fastpath
func (s *Space) Load8(ctx *cpu.Context, p mte.Ptr) (uint8, *mte.Fault) {
	m, f := s.checkAccess(ctx, p, 1, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	return m.rpage(off >> dataPageShift)[off&dataPageMask], nil
}

// Store8 writes one byte through a checked access.
//
//mte4jni:fastpath
func (s *Space) Store8(ctx *cpu.Context, p mte.Ptr, v uint8) *mte.Fault {
	m, f := s.checkAccess(ctx, p, 1, mte.AccessStore)
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

// Load16 reads a little-endian 16-bit value.
//
//mte4jni:fastpath
func (s *Space) Load16(ctx *cpu.Context, p mte.Ptr) (uint16, *mte.Fault) {
	m, f := s.checkAccess(ctx, p, 2, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	if pg, in, ok := m.rwindow(off, 2); ok {
		return binary.LittleEndian.Uint16(pg[in:]), nil
	}
	return uint16(m.loadSlow(off, 2)), nil
}

// Store16 writes a little-endian 16-bit value.
//
//mte4jni:fastpath
func (s *Space) Store16(ctx *cpu.Context, p mte.Ptr, v uint16) *mte.Fault {
	m, f := s.checkAccess(ctx, p, 2, mte.AccessStore)
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

// Load32 reads a little-endian 32-bit value.
//
//mte4jni:fastpath
func (s *Space) Load32(ctx *cpu.Context, p mte.Ptr) (uint32, *mte.Fault) {
	m, f := s.checkAccess(ctx, p, 4, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	if pg, in, ok := m.rwindow(off, 4); ok {
		return binary.LittleEndian.Uint32(pg[in:]), nil
	}
	return uint32(m.loadSlow(off, 4)), nil
}

// Store32 writes a little-endian 32-bit value.
//
//mte4jni:fastpath
func (s *Space) Store32(ctx *cpu.Context, p mte.Ptr, v uint32) *mte.Fault {
	m, f := s.checkAccess(ctx, p, 4, mte.AccessStore)
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

// Load64 reads a little-endian 64-bit value.
//
//mte4jni:fastpath
func (s *Space) Load64(ctx *cpu.Context, p mte.Ptr) (uint64, *mte.Fault) {
	m, f := s.checkAccess(ctx, p, 8, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	off := uint64(p.Addr() - m.base)
	if pg, in, ok := m.rwindow(off, 8); ok {
		return binary.LittleEndian.Uint64(pg[in:]), nil
	}
	return m.loadSlow(off, 8), nil
}

// Store64 writes a little-endian 64-bit value.
//
//mte4jni:fastpath
func (s *Space) Store64(ctx *cpu.Context, p mte.Ptr, v uint64) *mte.Fault {
	m, f := s.checkAccess(ctx, p, 8, mte.AccessStore)
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

// CopyOut performs a checked bulk read of len(dst) bytes starting at p into
// dst, the simulated equivalent of an unrolled load loop (or memcpy out of
// the Java heap). Tag checking is done per covered granule, matching how the
// hardware checks a sequence of loads.
//
//mte4jni:fastpath
func (s *Space) CopyOut(ctx *cpu.Context, p mte.Ptr, dst []byte) *mte.Fault {
	m, f := s.checkAccess(ctx, p, len(dst), mte.AccessLoad)
	if f != nil {
		return f
	}
	if len(dst) == 0 {
		return nil
	}
	m.readAt(uint64(p.Addr()-m.base), dst)
	return nil
}

// CopyIn performs a checked bulk write of src to simulated memory at p.
//
//mte4jni:fastpath
func (s *Space) CopyIn(ctx *cpu.Context, p mte.Ptr, src []byte) *mte.Fault {
	m, f := s.checkAccess(ctx, p, len(src), mte.AccessStore)
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

// Move copies n bytes from src to dst inside simulated memory, with checked
// access on both sides. It models native memcpy between two raw Java heap
// pointers — the workload of the paper's Figure 5 experiment.
//
// Two semantic guarantees are part of the engine contract (and locked by
// TestMoveSemantics):
//
//   - Overlapping src/dst ranges behave like memmove: the destination
//     receives the original source bytes even when the ranges alias (the
//     page walk runs backwards when the destination sits above the source,
//     and Go's copy is a memmove within each page-bounded run).
//   - The source is checked before the destination. When both sides would
//     fault in sync mode, the load fault is the one reported; in async mode
//     both mismatches are latched (first fault kept, second coalesced)
//     before the copy proceeds.
//
//mte4jni:fastpath
func (s *Space) Move(ctx *cpu.Context, dst, src mte.Ptr, n int) *mte.Fault {
	sm, f := s.checkAccess(ctx, src, n, mte.AccessLoad)
	if f != nil {
		return f
	}
	dm, f := s.checkAccess(ctx, dst, n, mte.AccessStore)
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
