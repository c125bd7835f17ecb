package mem

import (
	"encoding/binary"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
)

// ReferenceEngine is the pre-optimization tag-check engine, kept verbatim as
// a correctness oracle for the fast-path engine in access.go. It resolves
// every access with a linear scan over the mapping snapshot (no TLB) and
// compares tags with a plain byte loop (no SWAR, no single-granule split).
//
// The engines must be behaviourally identical: same fault kind, tags and
// suppression decision for every access, same async latching, same memory
// effects. The differential test in internal/fuzz drives both over
// randomized access streams (sync and async modes, tagged and untagged
// mappings, overlapping Moves, mid-stream Maps) and fails on any
// disagreement. Because it is the simple obviously-correct implementation,
// this file should never be "optimized" — its value is that it does not
// change.
type ReferenceEngine struct {
	s *Space
}

// NewReferenceEngine wraps a Space with the reference (slow, simple) access
// engine. The wrapped Space's own methods remain the fast engine; the two
// share mapping storage, so driving both over one Space is only meaningful
// for read-only comparison — the differential test uses two identically
// populated Spaces instead.
func NewReferenceEngine(s *Space) *ReferenceEngine { return &ReferenceEngine{s: s} }

// resolveLinear is the original Resolve: a linear scan over the snapshot.
func (r *ReferenceEngine) resolveLinear(addr mte.Addr) (*Mapping, bool) {
	for _, m := range *r.s.snapshot.Load() {
		if addr >= m.base && addr < m.End() {
			return m, true
		}
	}
	return nil, false
}

// checkAccess is the original validation algorithm, byte-for-byte: linear
// mapping resolution, then a byte loop comparing the pointer tag against
// every granule the access overlaps per mte.GranuleRange.
func (r *ReferenceEngine) checkAccess(ctx *cpu.Context, p mte.Ptr, size int, kind mte.AccessKind) (*Mapping, *mte.Fault) {
	addr := p.Addr()
	m, ok := r.resolveLinear(addr)
	if !ok || !m.contains(addr, size) {
		return nil, r.s.newFault(ctx, mte.FaultUnmapped, kind, p, size, p.Tag(), 0)
	}
	var need Prot = ProtRead
	if kind == mte.AccessStore {
		need = ProtWrite
	}
	if m.prot&need == 0 {
		return nil, r.s.newFault(ctx, mte.FaultProtection, kind, p, size, p.Tag(), 0)
	}
	if !m.Tagged() || !ctx.Checking() {
		return m, nil
	}
	gb, ge := mte.GranuleRange(addr, addr+mte.Addr(size))
	want := p.Tag()
	// One TagAt per granule — the obviously-correct walk, deliberately
	// blind to how tags are stored (flat array then, hierarchical table
	// now), so it keeps its oracle value across storage rewrites.
	for a := gb; a < ge; a += mte.GranuleSize {
		got := m.TagAt(a)
		if got == want {
			continue
		}
		f := r.s.newFault(ctx, mte.FaultTagMismatch, kind, p, size, p.Tag(), got)
		if ctx.CheckMode() == mte.TCFAsync {
			ctx.LatchAsyncFault(f)
			return m, nil
		}
		return nil, f
	}
	return m, nil
}

// read and write are the reference engine's only view of mapping bytes: a
// whole-range copy through the page walker, blind to page boundaries the
// way TagAt is blind to tag storage, so the fast engine's in-page fixed-width
// paths and its descending Move walk have an independent oracle.
func (r *ReferenceEngine) read(m *Mapping, addr mte.Addr, n int) []byte {
	b := make([]byte, n)
	m.readAt(uint64(addr-m.base), b)
	return b
}

func (r *ReferenceEngine) write(m *Mapping, addr mte.Addr, b []byte) {
	m.writeAt(uint64(addr-m.base), b)
}

// Load8 reads one byte through a reference-checked access.
func (r *ReferenceEngine) Load8(ctx *cpu.Context, p mte.Ptr) (uint8, *mte.Fault) {
	m, f := r.checkAccess(ctx, p, 1, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	return r.read(m, p.Addr(), 1)[0], nil
}

// Store8 writes one byte through a reference-checked access.
func (r *ReferenceEngine) Store8(ctx *cpu.Context, p mte.Ptr, v uint8) *mte.Fault {
	m, f := r.checkAccess(ctx, p, 1, mte.AccessStore)
	if f != nil {
		return f
	}
	r.write(m, p.Addr(), []byte{v})
	return nil
}

// Load16 reads a little-endian 16-bit value.
func (r *ReferenceEngine) Load16(ctx *cpu.Context, p mte.Ptr) (uint16, *mte.Fault) {
	m, f := r.checkAccess(ctx, p, 2, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint16(r.read(m, p.Addr(), 2)), nil
}

// Store16 writes a little-endian 16-bit value.
func (r *ReferenceEngine) Store16(ctx *cpu.Context, p mte.Ptr, v uint16) *mte.Fault {
	m, f := r.checkAccess(ctx, p, 2, mte.AccessStore)
	if f != nil {
		return f
	}
	r.write(m, p.Addr(), binary.LittleEndian.AppendUint16(nil, v))
	return nil
}

// Load32 reads a little-endian 32-bit value.
func (r *ReferenceEngine) Load32(ctx *cpu.Context, p mte.Ptr) (uint32, *mte.Fault) {
	m, f := r.checkAccess(ctx, p, 4, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint32(r.read(m, p.Addr(), 4)), nil
}

// Store32 writes a little-endian 32-bit value.
func (r *ReferenceEngine) Store32(ctx *cpu.Context, p mte.Ptr, v uint32) *mte.Fault {
	m, f := r.checkAccess(ctx, p, 4, mte.AccessStore)
	if f != nil {
		return f
	}
	r.write(m, p.Addr(), binary.LittleEndian.AppendUint32(nil, v))
	return nil
}

// Load64 reads a little-endian 64-bit value.
func (r *ReferenceEngine) Load64(ctx *cpu.Context, p mte.Ptr) (uint64, *mte.Fault) {
	m, f := r.checkAccess(ctx, p, 8, mte.AccessLoad)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(r.read(m, p.Addr(), 8)), nil
}

// Store64 writes a little-endian 64-bit value.
func (r *ReferenceEngine) Store64(ctx *cpu.Context, p mte.Ptr, v uint64) *mte.Fault {
	m, f := r.checkAccess(ctx, p, 8, mte.AccessStore)
	if f != nil {
		return f
	}
	r.write(m, p.Addr(), binary.LittleEndian.AppendUint64(nil, v))
	return nil
}

// CopyOut performs a reference-checked bulk read.
func (r *ReferenceEngine) CopyOut(ctx *cpu.Context, p mte.Ptr, dst []byte) *mte.Fault {
	m, f := r.checkAccess(ctx, p, len(dst), mte.AccessLoad)
	if f != nil {
		return f
	}
	if len(dst) == 0 {
		return nil
	}
	copy(dst, r.read(m, p.Addr(), len(dst)))
	return nil
}

// CopyIn performs a reference-checked bulk write.
func (r *ReferenceEngine) CopyIn(ctx *cpu.Context, p mte.Ptr, src []byte) *mte.Fault {
	m, f := r.checkAccess(ctx, p, len(src), mte.AccessStore)
	if f != nil {
		return f
	}
	if len(src) == 0 {
		return nil
	}
	r.write(m, p.Addr(), src)
	return nil
}

// Move copies n bytes from src to dst, reference-checked on both sides
// (source before destination, like the fast engine).
func (r *ReferenceEngine) Move(ctx *cpu.Context, dst, src mte.Ptr, n int) *mte.Fault {
	sm, f := r.checkAccess(ctx, src, n, mte.AccessLoad)
	if f != nil {
		return f
	}
	dm, f := r.checkAccess(ctx, dst, n, mte.AccessStore)
	if f != nil {
		return f
	}
	if n == 0 {
		return nil
	}
	// Read the whole source before writing anything: memmove by
	// construction, whatever the overlap.
	r.write(dm, dst.Addr(), r.read(sm, src.Addr(), n))
	return nil
}
