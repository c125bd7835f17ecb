package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

// The engine differential oracle. The fast-path access engine (per-thread
// TLB, SWAR tag compare, outlined fault path) and the pre-optimization
// reference engine (linear mapping scan, byte-loop tag compare) are driven
// over two identically constructed address spaces with the same randomized
// access stream. Any observable divergence — fault kind or tags, suppression
// decision, loaded values, async latch state, or final memory and tag
// contents — is a bug in the fast engine, because the reference engine is
// the specification.
//
// The stream deliberately covers what the fast engine special-cases:
// single-granule and granule-straddling accesses, spans long enough to hit
// the SWAR word loop (and its scalar tail), unmapped and guard-gap
// addresses, a read-only mapping for protection faults, mid-stream Map calls
// (TLB epoch invalidation), mid-stream retagging, and TCO flips.

// engineWorld is one side of the differential: a space plus the thread
// context accessing it.
type engineWorld struct {
	space *mem.Space
	ctx   *cpu.Context
	maps  []*mem.Mapping
}

// mappingBytes reads a whole mapping's bytes for the final sweeps.
func mappingBytes(m *mem.Mapping) ([]byte, error) {
	b := make([]byte, m.Size())
	return b, m.ReadRaw(m.Base(), b)
}

// mapBoth creates the same mapping in both worlds and fails on any layout
// divergence (placement is deterministic, so bases must be equal).
func mapBoth(a, b *engineWorld, name string, size uint64, prot mem.Prot) error {
	ma, errA := a.space.Map(name, size, prot)
	mb, errB := b.space.Map(name, size, prot)
	if (errA == nil) != (errB == nil) {
		return fmt.Errorf("Map(%q): one world errored (%v vs %v)", name, errA, errB)
	}
	if errA != nil {
		return nil
	}
	if ma.Base() != mb.Base() || ma.Size() != mb.Size() {
		return fmt.Errorf("Map(%q): layouts diverged (%v+%d vs %v+%d)",
			name, ma.Base(), ma.Size(), mb.Base(), mb.Size())
	}
	a.maps = append(a.maps, ma)
	b.maps = append(b.maps, mb)
	return nil
}

// faultsDiffer compares the observable fields of two faults. PC, backtrace
// and thread name are presentation, not semantics, and the two worlds run
// under differently named contexts, so they are excluded.
func faultsDiffer(fa, fb *mte.Fault) bool {
	if (fa == nil) != (fb == nil) {
		return true
	}
	if fa == nil {
		return false
	}
	return fa.Kind != fb.Kind || fa.Access != fb.Access || fa.Ptr != fb.Ptr ||
		fa.Size != fb.Size || fa.PtrTag != fb.PtrTag || fa.MemTag != fb.MemTag
}

// DifferentialEngines runs a randomized access stream of the given length
// against the fast and reference engines in the given check mode and returns
// an error describing the first divergence, or nil when the engines agreed
// on every step and on the final state.
func DifferentialEngines(seed int64, steps int, mode mte.CheckMode) error {
	rng := rand.New(rand.NewSource(seed))

	fast := &engineWorld{space: mem.NewSpace(), ctx: cpu.New("fast", mode)}
	refW := &engineWorld{space: mem.NewSpace(), ctx: cpu.New("reference", mode)}
	fast.ctx.SetTCO(false)
	refW.ctx.SetTCO(false)
	ref := mem.NewReferenceEngine(refW.space)

	// Base layout: a tagged heap, an untagged scratch region, and a
	// read-only region for protection faults.
	if err := mapBoth(fast, refW, "heap", 64*1024, mem.ProtRead|mem.ProtWrite|mem.ProtMTE); err != nil {
		return err
	}
	if err := mapBoth(fast, refW, "scratch", 16*1024, mem.ProtRead|mem.ProtWrite); err != nil {
		return err
	}
	if err := mapBoth(fast, refW, "rodata", 4096, mem.ProtRead|mem.ProtMTE); err != nil {
		return err
	}
	// A large, mostly-untouched tagged mapping: the sparse-space shape the
	// hierarchical tag table is built for. Most of its tag pages stay
	// deduplicated against the canonical zero page for the whole run, so the
	// sweep below also proves lazily materialized storage reads back
	// identically to the reference world's.
	if err := mapBoth(fast, refW, "sparse", 1<<20, mem.ProtRead|mem.ProtWrite|mem.ProtMTE); err != nil {
		return err
	}

	// randPtr picks an address biased toward interesting places: inside a
	// mapping (at random alignment), exactly at a boundary, just below a
	// 16 KiB data-page boundary (so fixed-width accesses straddle two pages
	// and spans cross one), or in the guard gap / unmapped space past one.
	randPtr := func() mte.Ptr {
		m := fast.maps[rng.Intn(len(fast.maps))]
		var addr mte.Addr
		switch rng.Intn(9) {
		case 0:
			addr = m.End() // one past the end
		case 1:
			addr = m.End() + mte.Addr(rng.Intn(4096)) // guard gap
		case 2:
			addr = m.Base() + mte.Addr(m.Size()) - mte.Addr(1+rng.Intn(32)) // tail
		case 3:
			const dataPage = 16384
			pages := int(m.Size()) / dataPage
			addr = m.Base() + mte.Addr(dataPage*(1+rng.Intn(pages+1))) - mte.Addr(1+rng.Intn(32))
		default:
			addr = m.Base() + mte.Addr(rng.Intn(int(m.Size())))
		}
		return mte.MakePtr(addr, mte.Tag(rng.Intn(16)))
	}
	// randSize is biased toward SWAR-relevant shapes: sub-granule, exactly
	// one word of granules (128 bytes), long spans with scalar tails.
	randSize := func() int {
		switch rng.Intn(6) {
		case 0:
			return rng.Intn(16) // within one granule (often)
		case 1:
			return 128 // exactly 8 granules: one SWAR word
		case 2:
			return 128 + 16*rng.Intn(8) // word loop + tail granules
		default:
			return rng.Intn(1024)
		}
	}

	check := func(step int, op string, fa, fb *mte.Fault) error {
		if faultsDiffer(fa, fb) {
			return fmt.Errorf("step %d %s: faults diverged\n fast: %+v\n  ref: %+v", step, op, fa, fb)
		}
		if fast.ctx.PendingAsyncFault() != refW.ctx.PendingAsyncFault() {
			return fmt.Errorf("step %d %s: async pending diverged", step, op)
		}
		if fast.ctx.AsyncFaultCount() != refW.ctx.AsyncFaultCount() {
			return fmt.Errorf("step %d %s: async fault counts diverged (%d vs %d)",
				step, op, fast.ctx.AsyncFaultCount(), refW.ctx.AsyncFaultCount())
		}
		return nil
	}

	buf := make([]byte, 1024)
	for step := 0; step < steps; step++ {
		switch rng.Intn(13) {
		case 0: // Load of a random width
			p := randPtr()
			var va, vb uint64
			var fa, fb *mte.Fault
			switch rng.Intn(4) {
			case 0:
				var a8, b8 uint8
				a8, fa = fast.space.Load8(fast.ctx, p)
				b8, fb = ref.Load8(refW.ctx, p)
				va, vb = uint64(a8), uint64(b8)
			case 1:
				var a16, b16 uint16
				a16, fa = fast.space.Load16(fast.ctx, p)
				b16, fb = ref.Load16(refW.ctx, p)
				va, vb = uint64(a16), uint64(b16)
			case 2:
				var a32, b32 uint32
				a32, fa = fast.space.Load32(fast.ctx, p)
				b32, fb = ref.Load32(refW.ctx, p)
				va, vb = uint64(a32), uint64(b32)
			default:
				va, fa = fast.space.Load64(fast.ctx, p)
				vb, fb = ref.Load64(refW.ctx, p)
			}
			if err := check(step, "load", fa, fb); err != nil {
				return err
			}
			if va != vb {
				return fmt.Errorf("step %d load %v: values diverged (%#x vs %#x)", step, p, va, vb)
			}
		case 1, 2: // Store of a random width
			p := randPtr()
			v := rng.Uint64()
			var fa, fb *mte.Fault
			switch rng.Intn(4) {
			case 0:
				fa = fast.space.Store8(fast.ctx, p, uint8(v))
				fb = ref.Store8(refW.ctx, p, uint8(v))
			case 1:
				fa = fast.space.Store16(fast.ctx, p, uint16(v))
				fb = ref.Store16(refW.ctx, p, uint16(v))
			case 2:
				fa = fast.space.Store32(fast.ctx, p, uint32(v))
				fb = ref.Store32(refW.ctx, p, uint32(v))
			default:
				fa = fast.space.Store64(fast.ctx, p, v)
				fb = ref.Store64(refW.ctx, p, v)
			}
			if err := check(step, "store", fa, fb); err != nil {
				return err
			}
		case 3, 4: // CopyOut
			p := randPtr()
			n := randSize()
			da, db := buf[:n], make([]byte, n)
			fa := fast.space.CopyOut(fast.ctx, p, da)
			fb := ref.CopyOut(refW.ctx, p, db)
			if err := check(step, "copyout", fa, fb); err != nil {
				return err
			}
			if fa == nil && !bytes.Equal(da, db) {
				return fmt.Errorf("step %d copyout %v+%d: data diverged", step, p, n)
			}
		case 5, 6: // CopyIn
			p := randPtr()
			n := randSize()
			src := buf[:n]
			rng.Read(src)
			fa := fast.space.CopyIn(fast.ctx, p, src)
			fb := ref.CopyIn(refW.ctx, p, src)
			if err := check(step, "copyin", fa, fb); err != nil {
				return err
			}
		case 7, 8: // Move, frequently overlapping
			src := randPtr()
			var dst mte.Ptr
			if rng.Intn(2) == 0 {
				// Overlap: shift the source by less than the span.
				dst = mte.MakePtr(src.Addr()+mte.Addr(rng.Intn(64)), mte.Tag(rng.Intn(16)))
			} else {
				dst = randPtr()
			}
			n := randSize()
			fa := fast.space.Move(fast.ctx, dst, src, n)
			fb := ref.Move(refW.ctx, dst, src, n)
			if err := check(step, "move", fa, fb); err != nil {
				return err
			}
		case 9: // Retag a random granule range in both worlds
			mi := rng.Intn(len(fast.maps))
			ma, mb := fast.maps[mi], refW.maps[mi]
			if !ma.Tagged() {
				continue
			}
			// Span shapes chosen to drive every tag-table transition:
			// short partial-page paints (copy-on-tag materialization),
			// page-aligned whole-page spans (uniform sentinel swaps),
			// page-crossing spans (edge materialization + interior swaps
			// in one call), and occasional whole-mapping repaints. A
			// quarter of the retags use tag 0, exercising the zero-dedup
			// path and copy-on-tag followed by retag-back-to-uniform.
			var begin, end mte.Addr
			const tagPage = 16384 // one tag page spans 16 KiB of data
			switch rng.Intn(6) {
			case 0: // whole tag pages, tag-page aligned
				pages := int(ma.Size() / tagPage)
				if pages == 0 {
					pages = 1
				}
				start := mte.Addr(rng.Intn(pages)) * tagPage
				begin = ma.Base() + start
				end = begin + mte.Addr(1+rng.Intn(3))*tagPage
			case 1: // page-crossing span from mid-page
				begin = ma.Base() + mte.Addr(rng.Intn(int(ma.Size())))
				end = begin + mte.Addr(tagPage/2+rng.Intn(3*tagPage))
			case 2: // whole mapping
				begin, end = ma.Base(), ma.End()
			default: // short partial-page paint
				begin = ma.Base() + mte.Addr(rng.Intn(int(ma.Size())))
				end = begin + mte.Addr(rng.Intn(256))
			}
			if end > ma.End() {
				end = ma.End()
			}
			tag := mte.Tag(rng.Intn(16))
			if rng.Intn(4) == 0 {
				tag = 0
			}
			na, errA := ma.SetTagRange(begin, end, tag)
			nb, errB := mb.SetTagRange(begin, end, tag)
			if na != nb || (errA == nil) != (errB == nil) {
				return fmt.Errorf("step %d settagrange: diverged (%d,%v vs %d,%v)", step, na, errA, nb, errB)
			}
		case 10: // Mid-stream Map: exercises epoch bump + TLB flush
			if len(fast.maps) < 8 {
				if err := mapBoth(fast, refW, fmt.Sprintf("mid-%d", step), 4096,
					mem.ProtRead|mem.ProtWrite|mem.ProtMTE); err != nil {
					return err
				}
			}
		case 11: // TCO flip on both threads
			suppressed := rng.Intn(2) == 0
			fast.ctx.SetTCO(suppressed)
			refW.ctx.SetTCO(suppressed)
		case 12: // Tag reseed: ResetTags a random mapping in both worlds
			// The defense-side reseed primitive (pool reseeds suspicious
			// sessions between leases): a whole-mapping repaint to tag 0
			// plus an epoch bump. Runs mid-stream so subsequent accesses
			// prove the collapsed-to-canonical state and the flushed TLBs
			// stay lockstep with the reference world.
			mi := rng.Intn(len(fast.maps))
			fast.space.ResetTags(fast.maps[mi])
			refW.space.ResetTags(refW.maps[mi])
		}
	}

	// Final sweep: memory bytes and tags must be identical everywhere.
	for i, ma := range fast.maps {
		mb := refW.maps[i]
		ba, errA := mappingBytes(ma)
		bb, errB := mappingBytes(mb)
		if errA != nil || errB != nil {
			return fmt.Errorf("final sweep: ReadRaw failed (%v, %v)", errA, errB)
		}
		if !bytes.Equal(ba, bb) {
			return fmt.Errorf("final sweep: mapping %q contents diverged", ma.Name())
		}
		for a := ma.Base(); a < ma.End(); a += mte.GranuleSize {
			if ma.TagAt(a) != mb.TagAt(a) {
				return fmt.Errorf("final sweep: mapping %q tag at %v diverged (%v vs %v)",
					ma.Name(), a, ma.TagAt(a), mb.TagAt(a))
			}
		}
	}
	return nil
}
