package pool

import (
	"context"
	"testing"

	"mte4jni"
	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

// TestRebuiltSessionReadsZeros checks tenant isolation on the paged data
// plane: a session that replaces a quarantined one must not see a byte of
// its predecessor's memory. The first session runs a workload, then every
// page of either heap it touched (plus the first and last page of each) is
// overwritten with a pattern, and a fault under MTE+Sync quarantines it.
// Its rebuild must start with no resident data pages and read back zeros
// over both heaps end to end.
func TestRebuiltSessionReadsZeros(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1})
	ctx := context.Background()

	s, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.RunProgram(nil, SafeProgram()); res.Faulted() || res.Err != nil {
		t.Fatalf("safe program: fault=%v err=%v", res.Fault, res.Err)
	}
	const page = 16 << 10
	pattern := make([]byte, page)
	for i := range pattern {
		pattern[i] = byte(0xA5 ^ i)
	}
	patterned := 0
	for _, m := range []*mem.Mapping{s.rt.VM().JavaHeap.Mapping(), s.rt.VM().NativeHeap.Mapping()} {
		buf := make([]byte, page)
		for a := m.Base(); a < m.End(); a += page {
			if err := m.ReadRaw(a, buf); err != nil {
				t.Fatal(err)
			}
			touched := a == m.Base() || a+page == m.End()
			for _, b := range buf {
				touched = touched || b != 0
			}
			if touched {
				if err := m.WriteRaw(a, pattern); err != nil {
					t.Fatal(err)
				}
				patterned++
			}
		}
	}
	if patterned < 4 {
		t.Fatalf("patterned only %d pages", patterned)
	}
	if res := s.RunProgram(nil, OOBProgram()); !res.Faulted() {
		t.Fatalf("OOB program did not fault under MTE+Sync (err=%v)", res.Err)
	}
	p.Release(s)

	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(s2)
	if st := p.Stats(); st.Quarantined != 1 || st.Created != 2 {
		t.Fatalf("stats = %+v, want the faulted session quarantined and rebuilt", st)
	}
	if st := s2.rt.VM().Space.TagStats(); st.DataPagesMaterialized != 0 {
		t.Fatalf("rebuilt session starts with %d resident data pages, want 0", st.DataPagesMaterialized)
	}
	buf := make([]byte, 1<<20)
	for _, m := range []*mem.Mapping{s2.rt.VM().JavaHeap.Mapping(), s2.rt.VM().NativeHeap.Mapping()} {
		for a := m.Base(); a < m.End(); a += mte.Addr(len(buf)) {
			n := min(uint64(len(buf)), uint64(m.End()-a))
			if err := m.ReadRaw(a, buf[:n]); err != nil {
				t.Fatal(err)
			}
			for i, b := range buf[:n] {
				if b != 0 {
					t.Fatalf("rebuilt session reads %#x at %v in %q", b, a+mte.Addr(i), m.Name())
				}
			}
		}
	}
}
