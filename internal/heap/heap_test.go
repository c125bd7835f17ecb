package heap

import (
	"sync"
	"testing"
	"testing/quick"

	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

func newHeap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	h, err := New(mem.NewSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAllocAlignmentAndZeroing(t *testing.T) {
	for _, align := range []uint64{8, 16} {
		h := newHeap(t, Config{Size: 1 << 20, Alignment: align, MTE: true})
		a, err := h.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(a)%align != 0 {
			t.Fatalf("align %d: address %v misaligned", align, a)
		}
		buf := make([]byte, 100)
		if err := h.Mapping().ReadRaw(a, buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("byte %d not zeroed", i)
			}
		}
	}
}

func TestInvalidAlignment(t *testing.T) {
	if _, err := New(mem.NewSpace(), Config{Alignment: 12}); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if _, err := New(mem.NewSpace(), Config{Alignment: 4}); err == nil {
		t.Fatal("alignment below 8 accepted")
	}
}

func TestEightByteAlignmentCanShareGranule(t *testing.T) {
	// The §4.1 hazard: under 8-byte alignment two 8-byte objects can land in
	// one 16-byte granule; under 16-byte alignment they never do.
	h8 := newHeap(t, Config{Size: 1 << 20, Alignment: 8, MTE: true})
	a1, _ := h8.Alloc(8)
	a2, _ := h8.Alloc(8)
	if a1.GranuleIndex() != a2.GranuleIndex() {
		t.Fatal("8-byte-aligned consecutive 8-byte allocs should share a granule")
	}

	h16 := newHeap(t, Config{Size: 1 << 20, Alignment: 16, MTE: true})
	b1, _ := h16.Alloc(8)
	b2, _ := h16.Alloc(8)
	if b1.GranuleIndex() == b2.GranuleIndex() {
		t.Fatal("16-byte-aligned allocs must not share a granule")
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	a, _ := h.Alloc(64)
	// Dirty it, free it, reallocate: must come back zeroed.
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := h.Mapping().WriteRaw(a, buf); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := h.Alloc(64)
	if b != a {
		t.Fatalf("free block not reused: %v vs %v", a, b)
	}
	buf2 := make([]byte, 64)
	if err := h.Mapping().ReadRaw(b, buf2); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf2 {
		if v != 0 {
			t.Fatalf("reused block byte %d not zeroed", i)
		}
	}
}

func TestDoubleFreeAndUnknownFree(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	a, _ := h.Alloc(32)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err == nil {
		t.Fatal("double free not detected")
	}
	if err := h.Free(a + 8); err == nil {
		t.Fatal("free of interior pointer not detected")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := newHeap(t, Config{Size: 4096, Alignment: 16})
	if _, err := h.Alloc(8192); err == nil {
		t.Fatal("oversized alloc must fail")
	}
	// Fill the heap, then one more must fail.
	for i := 0; i < 4096/16; i++ {
		if _, err := h.Alloc(16); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := h.Alloc(16); err == nil {
		t.Fatal("allocation past capacity must fail")
	}
}

func TestZeroSizeAllocDistinctAddresses(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	a, _ := h.Alloc(0)
	b, _ := h.Alloc(0)
	if a == b {
		t.Fatal("zero-size allocations must be distinct")
	}
}

func TestStatsAndForEach(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	a, _ := h.Alloc(100) // rounds to 112
	h.Alloc(16)
	if got := h.Live(); got != 2 {
		t.Fatalf("Live = %d", got)
	}
	st := h.Stats()
	if st.Allocs != 2 || st.BytesInUse != 112+16 || st.BytesPeak != 128 {
		t.Fatalf("stats = %+v", st)
	}
	h.Free(a)
	st = h.Stats()
	if st.Frees != 1 || st.BytesInUse != 16 || st.BytesPeak != 128 {
		t.Fatalf("stats after free = %+v", st)
	}
	var visited int
	var total uint64
	h.ForEach(func(addr mte.Addr, size uint64) {
		visited++
		total += size
	})
	if visited != 1 || total != 16 {
		t.Fatalf("ForEach visited=%d total=%d", visited, total)
	}
	if _, ok := h.SizeOf(a); ok {
		t.Fatal("SizeOf on freed block succeeded")
	}
	if size, ok := h.SizeOf(a + 112 - 112); ok && size != 0 {
		_ = size
	}
}

func TestPropertyAllocationsNeverOverlap(t *testing.T) {
	h := newHeap(t, Config{Size: 4 << 20, Alignment: 16, MTE: true})
	type block struct {
		addr mte.Addr
		size uint64
	}
	var blocks []block
	f := func(raw uint16) bool {
		size := uint64(raw%2048) + 1
		a, err := h.Alloc(size)
		if err != nil {
			return true // OOM is acceptable, not an overlap
		}
		for _, b := range blocks {
			if a < b.addr+mte.Addr(b.size) && b.addr < a+mte.Addr(size) {
				return false
			}
		}
		if uint64(a)%16 != 0 {
			return false
		}
		blocks = append(blocks, block{a, size})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	h := newHeap(t, Config{Size: 32 << 20, Alignment: 16, MTE: true})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []mte.Addr
			for j := 0; j < 500; j++ {
				a, err := h.Alloc(uint64(j%256 + 1))
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, a)
				if j%3 == 0 {
					if err := h.Free(mine[len(mine)-1]); err != nil {
						t.Error(err)
						return
					}
					mine = mine[:len(mine)-1]
				}
			}
			for _, a := range mine {
				if err := h.Free(a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h.Live() != 0 {
		t.Fatalf("leaked %d allocations", h.Live())
	}
	st := h.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d", st.Allocs, st.Frees)
	}
}
