package heap

import (
	"testing"

	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

// Close unmaps the backing mapping and fails subsequent allocator calls, so
// pooled reuse of a retired heap cannot leak or corrupt simulated memory.
func TestHeapClose(t *testing.T) {
	space := mem.NewSpace()
	h, err := New(space, Config{Name: "close-test", Size: 1 << 20, Alignment: 16, MTE: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if !h.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if _, err := h.Alloc(64); err == nil {
		t.Fatal("Alloc succeeded on closed heap")
	}
	if err := h.Free(addr); err == nil {
		t.Fatal("Free succeeded on closed heap")
	}
	if _, ok := space.Resolve(addr); ok {
		t.Fatal("heap mapping still resolvable after Close")
	}
	// Idempotent.
	if err := h.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Closing an MTE heap must release its materialized tag pages and its tag
// directory: resident tag bytes drop to zero once the space's only MTE
// mapping is gone.
func TestHeapCloseReleasesTagPages(t *testing.T) {
	space := mem.NewSpace()
	h, err := New(space, Config{Name: "close-tags", Size: 1 << 20, Alignment: 16, MTE: true})
	if err != nil {
		t.Fatal(err)
	}
	// Allocate and tag enough objects to materialize tag pages, the way the
	// protector tags objects on Acquire (partial-page SetTagRange spans).
	for i := 0; i < 64; i++ {
		addr, err := h.Alloc(48)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Mapping().SetTagRange(addr, addr+48, mte.Tag(1+i%15)); err != nil {
			t.Fatal(err)
		}
	}
	before := space.TagStats()
	if before.PagesResident == 0 {
		t.Fatal("tagged allocations materialized no pages; test needs a denser workload")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	after := space.TagStats()
	if after.PagesResident != 0 {
		t.Fatalf("PagesResident = %d after Close, want 0", after.PagesResident)
	}
	if after.DirBytes != 0 || after.BytesResident != 0 {
		t.Fatalf("DirBytes = %d, BytesResident = %d after Close, want 0/0", after.DirBytes, after.BytesResident)
	}
}

// Closing a heap that had TLABs and free-list entries in flight drops them
// all; nothing dangles into the unmapped region.
func TestHeapCloseDropsAllocatorState(t *testing.T) {
	space := mem.NewSpace()
	h, err := New(space, Config{Name: "close-state", Size: 1 << 20, Alignment: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Populate a TLAB (small allocs) and the free lists (freed blocks).
	var addrs []mte.Addr
	for i := 0; i < 32; i++ {
		a, err := h.Alloc(48)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs[:16] {
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range h.tlabs {
		if h.tlabs[i].Load() != nil {
			t.Fatal("TLAB handle survived Close")
		}
	}
	for i := range h.shards {
		h.shards[i].mu.Lock()
		n := len(h.shards[i].free)
		h.shards[i].mu.Unlock()
		if n != 0 {
			t.Fatal("free-list entries survived Close")
		}
	}
	for i := range h.units {
		if h.units[i].Load() != nil {
			t.Fatal("units-registry chunk survived Close")
		}
	}
}
