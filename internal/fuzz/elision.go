package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"

	"mte4jni/internal/analysis"
	"mte4jni/internal/core"
	"mte4jni/internal/cpu"
	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// The elision soundness oracle. Proof-carrying tag-check elision
// (internal/analysis compiling screening verdicts into an interp.ElisionMask)
// is only admissible if the guard-free execution it enables is observably
// identical to fully checked execution. Two oracles enforce that:
//
//   - DifferentialElidedEngines drives the raw access engine three ways in
//     lockstep — reference engine (the specification), checked fast engine,
//     and an elided driver that takes the *Unguarded fast path exactly where
//     a dynamic proof discharges the guard. Any divergence in values, fault
//     verdicts, async latch state, or final memory/tag contents is a bug in
//     the unguarded path.
//
//   - ElisionLockstep runs a whole program twice — fully checked and with
//     its compiled elision mask bound — and demands identical return values,
//     faults, managed errors and heap footprints, then re-validates every
//     elided PC's static proof against the dynamic run (the proof witness):
//     audited guard-free array accesses must have been in bounds, and every
//     traced native access under an elided call site must stay inside the
//     tag-rounded payload the proof recorded.

// mapTriple creates the same mapping in three worlds, failing on any layout
// divergence.
func mapTriple(a, b, c *engineWorld, name string, size uint64, prot mem.Prot) error {
	ma, errA := a.space.Map(name, size, prot)
	mb, errB := b.space.Map(name, size, prot)
	mc, errC := c.space.Map(name, size, prot)
	if (errA == nil) != (errB == nil) || (errA == nil) != (errC == nil) {
		return fmt.Errorf("Map(%q): worlds diverged on error (%v, %v, %v)", name, errA, errB, errC)
	}
	if errA != nil {
		return nil
	}
	if ma.Base() != mb.Base() || ma.Base() != mc.Base() || ma.Size() != mb.Size() || ma.Size() != mc.Size() {
		return fmt.Errorf("Map(%q): layouts diverged", name)
	}
	a.maps = append(a.maps, ma)
	b.maps = append(b.maps, mb)
	c.maps = append(c.maps, mc)
	return nil
}

// provenSpan is the dynamic analogue of the static in-payload proof: the
// span lies wholly inside one mapping and either checking is off, the
// mapping is untagged, or every granule's tag matches the pointer's. Only
// under this predicate may the elided world take the unguarded path — the
// same soundness condition the proof compiler discharges statically.
func provenSpan(w *engineWorld, p mte.Ptr, n int) bool {
	if n <= 0 {
		return false
	}
	if !w.ctx.Checking() {
		return true
	}
	var m *mem.Mapping
	for _, mm := range w.maps {
		if p.Addr() >= mm.Base() && p.Addr()+mte.Addr(n) <= mm.End() {
			m = mm
			break
		}
	}
	if m == nil {
		return false
	}
	if !m.Tagged() {
		return true
	}
	end := p.Addr() + mte.Addr(n)
	for a := p.Addr().AlignDown(mte.GranuleSize); a < end; a += mte.GranuleSize {
		if m.TagAt(a) != p.Tag() {
			return false
		}
	}
	return true
}

// DifferentialElidedEngines runs a randomized access stream through three
// worlds in lockstep — reference engine, checked fast engine, and the fast
// engine with unguarded accesses wherever provenSpan discharges the guard —
// and returns an error describing the first divergence, or nil.
func DifferentialElidedEngines(seed int64, steps int, mode mte.CheckMode) error {
	rng := rand.New(rand.NewSource(seed))

	fast := &engineWorld{space: mem.NewSpace(), ctx: cpu.New("fast", mode)}
	refW := &engineWorld{space: mem.NewSpace(), ctx: cpu.New("reference", mode)}
	elw := &engineWorld{space: mem.NewSpace(), ctx: cpu.New("elided", mode)}
	for _, w := range []*engineWorld{fast, refW, elw} {
		w.ctx.SetTCO(false)
	}
	ref := mem.NewReferenceEngine(refW.space)

	if err := mapTriple(fast, refW, elw, "heap", 64*1024, mem.ProtRead|mem.ProtWrite|mem.ProtMTE); err != nil {
		return err
	}
	if err := mapTriple(fast, refW, elw, "scratch", 16*1024, mem.ProtRead|mem.ProtWrite); err != nil {
		return err
	}
	if err := mapTriple(fast, refW, elw, "rodata", 4096, mem.ProtRead|mem.ProtMTE); err != nil {
		return err
	}
	// Large, mostly-untouched tagged mapping: sparse-space coverage for the
	// hierarchical tag table under all three engines (see engine.go).
	if err := mapTriple(fast, refW, elw, "sparse", 1<<20, mem.ProtRead|mem.ProtWrite|mem.ProtMTE); err != nil {
		return err
	}

	randPtr := func() mte.Ptr {
		m := fast.maps[rng.Intn(len(fast.maps))]
		var addr mte.Addr
		switch rng.Intn(8) {
		case 0:
			addr = m.End()
		case 1:
			addr = m.End() + mte.Addr(rng.Intn(4096))
		case 2:
			addr = m.Base() + mte.Addr(m.Size()) - mte.Addr(1+rng.Intn(32))
		default:
			addr = m.Base() + mte.Addr(rng.Intn(int(m.Size())))
		}
		return mte.MakePtr(addr, mte.Tag(rng.Intn(16)))
	}
	randSize := func() int {
		switch rng.Intn(6) {
		case 0:
			return rng.Intn(16)
		case 1:
			return 128
		case 2:
			return 128 + 16*rng.Intn(8)
		default:
			return rng.Intn(1024)
		}
	}

	check := func(step int, op string, fa, fb, fe *mte.Fault) error {
		if faultsDiffer(fa, fb) {
			return fmt.Errorf("step %d %s: fast/reference faults diverged\n fast: %+v\n  ref: %+v", step, op, fa, fb)
		}
		if faultsDiffer(fe, fa) {
			return fmt.Errorf("step %d %s: elided fault diverged\nelided: %+v\n  fast: %+v", step, op, fe, fa)
		}
		if fast.ctx.PendingAsyncFault() != refW.ctx.PendingAsyncFault() ||
			elw.ctx.PendingAsyncFault() != fast.ctx.PendingAsyncFault() {
			return fmt.Errorf("step %d %s: async pending diverged", step, op)
		}
		if fast.ctx.AsyncFaultCount() != refW.ctx.AsyncFaultCount() ||
			elw.ctx.AsyncFaultCount() != fast.ctx.AsyncFaultCount() {
			return fmt.Errorf("step %d %s: async fault counts diverged", step, op)
		}
		return nil
	}

	buf := make([]byte, 1024)
	elided := 0
	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0: // Load of a random width
			p := randPtr()
			var va, vb, ve uint64
			var fa, fb, fe *mte.Fault
			width := rng.Intn(4)
			sz := 1 << width
			useElide := provenSpan(elw, p, sz)
			switch width {
			case 0:
				var a8, b8, e8 uint8
				a8, fa = fast.space.Load8(fast.ctx, p)
				b8, fb = ref.Load8(refW.ctx, p)
				if useElide {
					e8, fe = elw.space.Load8Unguarded(elw.ctx, p)
				} else {
					e8, fe = elw.space.Load8(elw.ctx, p)
				}
				va, vb, ve = uint64(a8), uint64(b8), uint64(e8)
			case 1:
				var a16, b16, e16 uint16
				a16, fa = fast.space.Load16(fast.ctx, p)
				b16, fb = ref.Load16(refW.ctx, p)
				if useElide {
					e16, fe = elw.space.Load16Unguarded(elw.ctx, p)
				} else {
					e16, fe = elw.space.Load16(elw.ctx, p)
				}
				va, vb, ve = uint64(a16), uint64(b16), uint64(e16)
			case 2:
				var a32, b32, e32 uint32
				a32, fa = fast.space.Load32(fast.ctx, p)
				b32, fb = ref.Load32(refW.ctx, p)
				if useElide {
					e32, fe = elw.space.Load32Unguarded(elw.ctx, p)
				} else {
					e32, fe = elw.space.Load32(elw.ctx, p)
				}
				va, vb, ve = uint64(a32), uint64(b32), uint64(e32)
			default:
				va, fa = fast.space.Load64(fast.ctx, p)
				vb, fb = ref.Load64(refW.ctx, p)
				if useElide {
					ve, fe = elw.space.Load64Unguarded(elw.ctx, p)
				} else {
					ve, fe = elw.space.Load64(elw.ctx, p)
				}
			}
			if useElide {
				elided++
			}
			if err := check(step, "load", fa, fb, fe); err != nil {
				return err
			}
			if va != vb || ve != va {
				return fmt.Errorf("step %d load %v: values diverged (%#x, %#x, %#x)", step, p, va, vb, ve)
			}
		case 1, 2: // Store of a random width
			p := randPtr()
			v := rng.Uint64()
			var fa, fb, fe *mte.Fault
			width := rng.Intn(4)
			useElide := provenSpan(elw, p, 1<<width)
			switch width {
			case 0:
				fa = fast.space.Store8(fast.ctx, p, uint8(v))
				fb = ref.Store8(refW.ctx, p, uint8(v))
				if useElide {
					fe = elw.space.Store8Unguarded(elw.ctx, p, uint8(v))
				} else {
					fe = elw.space.Store8(elw.ctx, p, uint8(v))
				}
			case 1:
				fa = fast.space.Store16(fast.ctx, p, uint16(v))
				fb = ref.Store16(refW.ctx, p, uint16(v))
				if useElide {
					fe = elw.space.Store16Unguarded(elw.ctx, p, uint16(v))
				} else {
					fe = elw.space.Store16(elw.ctx, p, uint16(v))
				}
			case 2:
				fa = fast.space.Store32(fast.ctx, p, uint32(v))
				fb = ref.Store32(refW.ctx, p, uint32(v))
				if useElide {
					fe = elw.space.Store32Unguarded(elw.ctx, p, uint32(v))
				} else {
					fe = elw.space.Store32(elw.ctx, p, uint32(v))
				}
			default:
				fa = fast.space.Store64(fast.ctx, p, v)
				fb = ref.Store64(refW.ctx, p, v)
				if useElide {
					fe = elw.space.Store64Unguarded(elw.ctx, p, v)
				} else {
					fe = elw.space.Store64(elw.ctx, p, v)
				}
			}
			if useElide {
				elided++
			}
			if err := check(step, "store", fa, fb, fe); err != nil {
				return err
			}
		case 3, 4: // CopyOut
			p := randPtr()
			n := randSize()
			da, db, de := buf[:n], make([]byte, n), make([]byte, n)
			fa := fast.space.CopyOut(fast.ctx, p, da)
			fb := ref.CopyOut(refW.ctx, p, db)
			var fe *mte.Fault
			if provenSpan(elw, p, n) {
				fe = elw.space.CopyOutUnguarded(elw.ctx, p, de)
				elided++
			} else {
				fe = elw.space.CopyOut(elw.ctx, p, de)
			}
			if err := check(step, "copyout", fa, fb, fe); err != nil {
				return err
			}
			if fa == nil && (!bytes.Equal(da, db) || !bytes.Equal(de, da)) {
				return fmt.Errorf("step %d copyout %v+%d: data diverged", step, p, n)
			}
		case 5, 6: // CopyIn
			p := randPtr()
			n := randSize()
			src := buf[:n]
			rng.Read(src)
			fa := fast.space.CopyIn(fast.ctx, p, src)
			fb := ref.CopyIn(refW.ctx, p, src)
			var fe *mte.Fault
			if provenSpan(elw, p, n) {
				fe = elw.space.CopyInUnguarded(elw.ctx, p, src)
				elided++
			} else {
				fe = elw.space.CopyIn(elw.ctx, p, src)
			}
			if err := check(step, "copyin", fa, fb, fe); err != nil {
				return err
			}
		case 7, 8: // Move, frequently overlapping
			src := randPtr()
			var dst mte.Ptr
			if rng.Intn(2) == 0 {
				dst = mte.MakePtr(src.Addr()+mte.Addr(rng.Intn(64)), mte.Tag(rng.Intn(16)))
			} else {
				dst = randPtr()
			}
			n := randSize()
			fa := fast.space.Move(fast.ctx, dst, src, n)
			fb := ref.Move(refW.ctx, dst, src, n)
			var fe *mte.Fault
			if provenSpan(elw, src, n) && provenSpan(elw, dst, n) {
				fe = elw.space.MoveUnguarded(elw.ctx, dst, src, n)
				elided++
			} else {
				fe = elw.space.Move(elw.ctx, dst, src, n)
			}
			if err := check(step, "move", fa, fb, fe); err != nil {
				return err
			}
		case 9: // Retag a random granule range in all worlds
			mi := rng.Intn(len(fast.maps))
			ma, mb, mc := fast.maps[mi], refW.maps[mi], elw.maps[mi]
			if !ma.Tagged() {
				continue
			}
			// Same tag-table-transition span shapes as the two-world
			// differential (engine.go case 9): whole pages, page-crossing
			// spans, whole mapping, short partial paints, with a bias
			// toward tag 0 for the zero-dedup path.
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
			nc, errC := mc.SetTagRange(begin, end, tag)
			if na != nb || na != nc || (errA == nil) != (errB == nil) || (errA == nil) != (errC == nil) {
				return fmt.Errorf("step %d settagrange: diverged", step)
			}
		case 10: // Mid-stream Map: exercises epoch bump + TLB flush
			if len(fast.maps) < 8 {
				if err := mapTriple(fast, refW, elw, fmt.Sprintf("mid-%d", step), 4096,
					mem.ProtRead|mem.ProtWrite|mem.ProtMTE); err != nil {
					return err
				}
			}
		case 11: // TCO flip on all threads
			suppressed := rng.Intn(2) == 0
			fast.ctx.SetTCO(suppressed)
			refW.ctx.SetTCO(suppressed)
			elw.ctx.SetTCO(suppressed)
		}
	}
	if steps >= 1000 && elided == 0 {
		return fmt.Errorf("elided engine oracle: no step ever took the unguarded path in %d steps", steps)
	}

	// Final sweep: memory bytes and tags must be identical in all worlds.
	for i, ma := range fast.maps {
		mb, mc := refW.maps[i], elw.maps[i]
		ba, errA := mappingBytes(ma)
		bb, errB := mappingBytes(mb)
		bc, errC := mappingBytes(mc)
		if errA != nil || errB != nil || errC != nil {
			return fmt.Errorf("final sweep: ReadRaw failed (%v, %v, %v)", errA, errB, errC)
		}
		if !bytes.Equal(ba, bb) || !bytes.Equal(bc, ba) {
			return fmt.Errorf("final sweep: mapping %q contents diverged", ma.Name())
		}
		for a := ma.Base(); a < ma.End(); a += mte.GranuleSize {
			if ma.TagAt(a) != mb.TagAt(a) || mc.TagAt(a) != ma.TagAt(a) {
				return fmt.Errorf("final sweep: mapping %q tag at %v diverged", ma.Name(), a)
			}
		}
	}
	return nil
}

// ElidedOutcome extends Outcome with the elided run's proof accounting.
type ElidedOutcome struct {
	Outcome
	// Elision is the compiled proof object bound for the run (nil when the
	// analyzer produced none).
	Elision *analysis.Elision
	// Audit is the interpreter's record of guard-free array accesses.
	Audit *interp.ElisionAudit
	// Invalidations counts runtime proof invalidations (remap, release).
	Invalidations uint64
}

// ExecuteElided runs the program exactly like Execute, but with its compiled
// elision mask bound — the interpreter skips statically discharged guards —
// and an audit sink attached for the proof witness.
func ExecuteElided(p *analysis.Program, seed int64) (*ElidedOutcome, error) {
	res := p.Analyze("")
	v, err := vm.New(vm.Options{
		HeapSize: 8 << 20, NativeHeapSize: 8 << 20,
		MTE: true, CheckMode: mte.TCFSync,
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	th, err := v.AttachThread("differential-elided")
	if err != nil {
		return nil, err
	}
	prot, err := core.New(v, core.Config{ExcludeNeighbors: true})
	if err != nil {
		return nil, err
	}
	env := jni.NewEnv(th, prot, true)
	rec := jni.NewRecordingTracer()
	env.SetTracer(rec)

	ip := interp.New(env)
	for name, sum := range p.Natives {
		ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: sum.Materialize()})
	}
	out := &ElidedOutcome{Elision: res.Elision, Audit: ip.AuditElision()}
	if res.Elision != nil {
		if err := res.Elision.ValidateBinding(p); err != nil {
			return nil, fmt.Errorf("elision lockstep: proofs failed to rebind to their own program: %w", err)
		}
		ip.BindElision(res.Elision.Mask())
	}
	out.Ret, out.Fault, out.Err = ip.Invoke(p.Method)
	out.Trace = rec.Events()
	out.LiveObjects = v.LiveObjects()
	out.BytesInUse = v.JavaHeap.Stats().BytesInUse
	out.Invalidations = env.ElisionInvalidations()
	return out, nil
}

// ElisionLockstep executes p fully checked and with its elision mask bound,
// demands observably identical outcomes, and re-validates every elided PC's
// proof against the dynamic run. The returned outcome is the elided run's.
func ElisionLockstep(p *analysis.Program, seed int64) (*ElidedOutcome, error) {
	checked, err := Execute(p, seed)
	if err != nil {
		return nil, err
	}
	elided, err := ExecuteElided(p, seed)
	if err != nil {
		return nil, err
	}
	if checked.Ret != elided.Ret {
		return nil, fmt.Errorf("elision lockstep: returns diverged (%d checked, %d elided)\n%s",
			checked.Ret, elided.Ret, interp.Disassemble(p.Method))
	}
	if faultsDiffer(checked.Fault, elided.Fault) {
		return nil, fmt.Errorf("elision lockstep: fault verdicts diverged\nchecked: %+v\n elided: %+v\n%s",
			checked.Fault, elided.Fault, interp.Disassemble(p.Method))
	}
	if errString(checked.Err) != errString(elided.Err) {
		return nil, fmt.Errorf("elision lockstep: managed errors diverged (%q checked, %q elided)",
			errString(checked.Err), errString(elided.Err))
	}
	if checked.LiveObjects != elided.LiveObjects || checked.BytesInUse != elided.BytesInUse {
		return nil, fmt.Errorf("elision lockstep: heap footprints diverged (%d/%d vs %d/%d)",
			checked.LiveObjects, checked.BytesInUse, elided.LiveObjects, elided.BytesInUse)
	}
	if err := WitnessProofs(p, elided); err != nil {
		return nil, err
	}
	return elided, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// WitnessProofs re-validates each elided PC's static verdict against the
// dynamic run: guard-free array accesses must have stayed in bounds (the
// interpreter audit), traced native accesses under an elided call site must
// stay inside the tag-rounded payload the proof recorded, and a proof whose
// site never executed must at least be self-consistent. An error here is a
// proof-compiler bug, not a program bug.
func WitnessProofs(p *analysis.Program, out *ElidedOutcome) error {
	if out.Elision == nil {
		return nil
	}
	if len(out.Audit.Violations) > 0 {
		vio := out.Audit.Violations[0]
		return fmt.Errorf("proof witness: pc %d: elided access index %d escaped length %d",
			vio.PC, vio.Index, vio.Length)
	}
	for pc := range out.Audit.Executed {
		if !out.Elision.Mask().Elided(pc) {
			return fmt.Errorf("proof witness: pc %d executed guard-free without a mask bit", pc)
		}
	}
	for _, pr := range out.Elision.Proofs() {
		switch pr.Op {
		case "aget", "aput":
			if pr.IdxLo < 0 || pr.IdxHi >= pr.LenLo {
				return fmt.Errorf("proof witness: pc %d: index interval [%d,%d] not within [0,%d)",
					pr.PC, pr.IdxLo, pr.IdxHi, pr.LenLo)
			}
		case "callnative":
			if err := witnessCallSite(p, out, pr); err != nil {
				return err
			}
		default:
			return fmt.Errorf("proof witness: pc %d: unknown proof op %q", pr.PC, pr.Op)
		}
	}
	return nil
}

// witnessCallSite checks one elided native call site's proof against the
// recorded trace: the handouts and raw accesses inside every invocation of
// the named native must match the facts the safe verdict assumed.
func witnessCallSite(p *analysis.Program, out *ElidedOutcome, pr analysis.ElisionProof) error {
	sum, ok := p.Natives[pr.Native]
	if !ok {
		return fmt.Errorf("proof witness: pc %d: proof names unknown native %q", pr.PC, pr.Native)
	}
	if sum.Kind == jni.CriticalNative {
		// The proof rests on the trampoline never arming tag checks for
		// @CriticalNative code, not on payload bounds; the kind fact is the
		// whole witness.
		return nil
	}
	// Tag safety extends to the granule-rounded end of the payload the
	// length fact promised — the same safeEnd the static verdict used.
	allowedEnd := int64(mte.Addr(uint64(pr.LenLo) * 4).AlignUp(mte.GranuleSize))
	var begin mte.Addr
	inWindow, haveGet := false, false
	for _, ev := range out.Trace {
		switch ev.Kind {
		case jni.TraceNativeEnter:
			if ev.Iface == pr.Native {
				inWindow, haveGet = true, false
			}
		case jni.TraceNativeExit:
			if ev.Iface == pr.Native {
				inWindow = false
			}
		case jni.TraceGet:
			if inWindow {
				begin, haveGet = ev.Begin, true
			}
		case jni.TraceAccess:
			if !inWindow {
				continue
			}
			if !pr.Touches {
				return fmt.Errorf("proof witness: pc %d: %q proven access-free but traced a %d-byte access",
					pr.PC, pr.Native, ev.Size)
			}
			if !haveGet {
				return fmt.Errorf("proof witness: pc %d: %q accessed memory before any handout", pr.PC, pr.Native)
			}
			off := int64(ev.Ptr.Addr()) - int64(begin)
			if off < 0 || off+int64(ev.Size) > allowedEnd {
				return fmt.Errorf("proof witness: pc %d: %q access at offset %d+%d escapes proven payload [0,%d)",
					pr.PC, pr.Native, off, ev.Size, allowedEnd)
			}
			if off < pr.MinOff || off > pr.MaxOff {
				return fmt.Errorf("proof witness: pc %d: %q access at offset %d outside summary range [%d,%d]",
					pr.PC, pr.Native, off, pr.MinOff, pr.MaxOff)
			}
		}
	}
	return nil
}
