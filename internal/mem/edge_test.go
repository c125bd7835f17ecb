package mem

import (
	"testing"
	"testing/quick"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
)

func TestWidthRoundTripProperty(t *testing.T) {
	s, m := newTestSpace(t)
	ctx := checkingCtx(mte.TCFNone)
	base := m.Base()

	f := func(off uint16, v64 uint64) bool {
		// Keep the access inside the mapping with room for 8 bytes.
		a := base + mte.Addr(off%uint16(m.Size()-8))
		p := mte.MakePtr(a, 0)
		if s.Store64(ctx, p, v64) != nil {
			return false
		}
		got64, f := s.Load64(ctx, p)
		if f != nil || got64 != v64 {
			return false
		}
		// Sub-width loads agree with the little-endian layout.
		b, _ := s.Load8(ctx, p)
		if b != uint8(v64) {
			return false
		}
		h, _ := s.Load16(ctx, p)
		if h != uint16(v64) {
			return false
		}
		w, _ := s.Load32(ctx, p)
		return w == uint32(v64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncModeFaultsOnAllWidths(t *testing.T) {
	// Every access width must latch (not raise) in async mode and the
	// access must proceed.
	s, m := newTestSpace(t)
	m.SetTagRange(m.Base(), m.Base()+16, 0x6)
	oobBase := mte.MakePtr(m.Base(), 0x6).Add(16) // granule past the tagged one

	type op func(ctx *cpu.Context, p mte.Ptr) *mte.Fault
	ops := map[string]op{
		"store8":  func(c *cpu.Context, p mte.Ptr) *mte.Fault { return s.Store8(c, p, 1) },
		"store16": func(c *cpu.Context, p mte.Ptr) *mte.Fault { return s.Store16(c, p, 1) },
		"store32": func(c *cpu.Context, p mte.Ptr) *mte.Fault { return s.Store32(c, p, 1) },
		"store64": func(c *cpu.Context, p mte.Ptr) *mte.Fault { return s.Store64(c, p, 1) },
		"load8":   func(c *cpu.Context, p mte.Ptr) *mte.Fault { _, f := s.Load8(c, p); return f },
		"load16":  func(c *cpu.Context, p mte.Ptr) *mte.Fault { _, f := s.Load16(c, p); return f },
		"load32":  func(c *cpu.Context, p mte.Ptr) *mte.Fault { _, f := s.Load32(c, p); return f },
		"load64":  func(c *cpu.Context, p mte.Ptr) *mte.Fault { _, f := s.Load64(c, p); return f },
	}
	for name, o := range ops {
		ctx := checkingCtx(mte.TCFAsync)
		if f := o(ctx, oobBase); f != nil {
			t.Fatalf("%s: async access raised synchronously: %v", name, f)
		}
		if !ctx.PendingAsyncFault() {
			t.Fatalf("%s: no async fault latched", name)
		}
	}
}

func TestAccessStraddlingGranulesChecksBoth(t *testing.T) {
	s, m := newTestSpace(t)
	ctx := checkingCtx(mte.TCFSync)
	// Tag only the first granule; an 8-byte access straddling into the
	// second must fault even though it starts on tagged memory.
	m.SetTagRange(m.Base(), m.Base()+16, 0x3)
	p := mte.MakePtr(m.Base()+12, 0x3)
	if f := s.Store64(ctx, p, 1); f == nil {
		t.Fatal("straddling store not checked against the second granule")
	}
	// Tag the second granule too: now it passes.
	m.SetTagRange(m.Base()+16, m.Base()+32, 0x3)
	if f := s.Store64(ctx, p, 1); f != nil {
		t.Fatalf("straddling store with both granules tagged faulted: %v", f)
	}
}

func TestMappingAccessors(t *testing.T) {
	s := NewSpace()
	m, _ := s.Map("labelled", 4096, ProtRead|ProtWrite|ProtMTE)
	if m.Name() != "labelled" || m.Prot() != ProtRead|ProtWrite|ProtMTE || !m.Tagged() {
		t.Fatal("accessors wrong")
	}
	if m.End() != m.Base()+4096 {
		t.Fatal("End wrong")
	}
}
