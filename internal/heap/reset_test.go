package heap

import (
	"testing"

	"mte4jni/internal/mte"
)

// fillAndFree allocates one block of each size in turn, then frees them all,
// leaving a heap with no live block and a free list per size.
func fillAndFree(t *testing.T, h *Heap, sizes ...uint64) {
	t.Helper()
	var addrs []mte.Addr
	for _, size := range sizes {
		a, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResetEmptyHeapAllocatesFromBase(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	// A small block (TLAB) and a large one (central carve), freed: without a
	// reset a new size would come from fresh bump space past both.
	fillAndFree(t, h, 48, maxTLABAlloc+16)
	if !h.Reset() {
		t.Fatal("Reset of an empty heap reported no reset")
	}
	for _, size := range []uint64{32, maxTLABAlloc + 64} {
		a, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if a != h.Mapping().Base() {
			t.Fatalf("first %d-byte block after Reset at %v, want the base %v", size, a, h.Mapping().Base())
		}
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
		h.Reset()
	}
	// The free lists were emptied, not merely bypassed: a freed size class
	// is served from the bump region after the reset.
	fillAndFree(t, h, 64)
	h.Reset()
	a, _ := h.Alloc(32)
	b, _ := h.Alloc(64)
	if a != h.Mapping().Base() || b != a+32 {
		t.Fatalf("post-reset blocks at %v, %v; want consecutive from the base", a, b)
	}
}

func TestResetWithLiveBlockDoesNothing(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	live, _ := h.Alloc(64)
	freed, _ := h.Alloc(32)
	if err := h.Free(freed); err != nil {
		t.Fatal(err)
	}
	if h.Reset() {
		t.Fatal("Reset of a heap with a live block reported a reset")
	}
	if size, ok := h.SizeOf(live); !ok || size != 64 {
		t.Fatalf("live block after refused Reset: SizeOf = %d,%v", size, ok)
	}
	// The free list survived: the freed class is still reused LIFO, and new
	// blocks never overlap the live one.
	if c, _ := h.Alloc(32); c != freed {
		t.Fatalf("free list lost by a refused Reset: got %v, want %v", c, freed)
	}
	if d, _ := h.Alloc(64); d == live {
		t.Fatal("a new block overlapped the live block")
	}
}

func TestResetKeepsCorruptionDetection(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	old, _ := h.Alloc(256)
	h.Free(old)
	h.Reset()
	a, _ := h.Alloc(64)
	if err := h.Free(a + 16); err == nil {
		t.Fatal("free of an interior pointer not detected after Reset")
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err == nil {
		t.Fatal("double free not detected after Reset")
	}
	// The pre-reset block was freed and its space reissued: its start is
	// not a live block any more.
	if err := h.Free(old + 128); err == nil {
		t.Fatal("free of a never-reissued pre-reset address not detected")
	}
}

func TestResetStats(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	fillAndFree(t, h, 100, 16) // 112 + 16 bytes
	before := h.Stats()
	h.Reset()
	if st := h.Stats(); st != before {
		t.Fatalf("Reset changed the counters: %+v -> %+v", before, st)
	}
	a, _ := h.Alloc(100)
	st := h.Stats()
	want := Stats{Allocs: 3, Frees: 2, BytesInUse: 112, BytesPeak: 128, BumpUsed: 128 + 112}
	if st != want {
		t.Fatalf("stats after a post-reset alloc = %+v, want %+v", st, want)
	}
	var visited int
	h.ForEach(func(addr mte.Addr, size uint64) {
		visited++
		if addr != a || size != 112 {
			t.Fatalf("ForEach visited %v+%d, want %v+112", addr, size, a)
		}
	})
	if visited != 1 || h.Live() != 1 {
		t.Fatalf("ForEach visited %d blocks, Live = %d; want 1", visited, h.Live())
	}
}

func TestResetRefillsToTheLastByte(t *testing.T) {
	h := newHeap(t, Config{Size: 4096, Alignment: 16})
	for round := 0; round < 3; round++ {
		addrs := make([]mte.Addr, 0, 4096/16)
		for i := 0; i < 4096/16; i++ {
			a, err := h.Alloc(16)
			if err != nil {
				t.Fatalf("round %d: alloc %d failed early: %v", round, i, err)
			}
			addrs = append(addrs, a)
		}
		if _, err := h.Alloc(16); err == nil {
			t.Fatalf("round %d: allocation past capacity must fail", round)
		}
		for _, a := range addrs {
			h.Free(a)
		}
		if !h.Reset() {
			t.Fatalf("round %d: Reset refused an empty heap", round)
		}
		// A block the size of the whole heap fits only after the reset.
		a, err := h.Alloc(4096)
		if err != nil {
			t.Fatalf("round %d: whole-heap block after Reset: %v", round, err)
		}
		h.Free(a)
		h.Reset()
	}
}

func TestResetAllocsNothing(t *testing.T) {
	h := newHeap(t, Config{Size: 4 << 20, Alignment: 16})
	sizes := []uint64{16, 48, 1024, maxTLABAlloc + 16, 64 << 10}
	var addrs [5]mte.Addr
	cycle := func() {
		for i, size := range sizes {
			addrs[i], _ = h.Alloc(size)
		}
		for _, a := range addrs {
			if err := h.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		if !h.Reset() {
			t.Fatal("Reset refused an empty heap")
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("a warm alloc/free/Reset cycle allocates %v per run", avg)
	}
}

func TestResetClosedHeap(t *testing.T) {
	h := newHeap(t, Config{Size: 1 << 20, Alignment: 16})
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Reset() {
		t.Fatal("Reset of a closed heap reported a reset")
	}
}
