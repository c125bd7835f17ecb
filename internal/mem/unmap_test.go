package mem

import (
	"testing"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
)

// Unmap removes the mapping from resolution, bumps the epoch so warm TLBs
// flush, and releases the backing storage.
func TestUnmapReleasesMapping(t *testing.T) {
	s := NewSpace()
	m, err := s.Map("victim", 8192, ProtRead|ProtWrite|ProtMTE)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := s.Map("keep", 4096, ProtRead|ProtWrite)
	if err != nil {
		t.Fatal(err)
	}

	ctx := cpu.New("t", mte.TCFSync)
	ctx.SetTCO(false)
	p := mte.MakePtr(m.Base(), 0)
	if f := s.Store64(ctx, p, 0xdead); f != nil {
		t.Fatalf("pre-unmap store faulted: %v", f)
	}

	epoch := s.Epoch()
	if err := s.Unmap(m); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != epoch+1 {
		t.Fatalf("Unmap did not bump epoch: %d -> %d", epoch, s.Epoch())
	}
	if _, ok := s.Resolve(m.Base()); ok {
		t.Fatal("Resolve still finds the unmapped mapping")
	}
	if got := len(s.Mappings()); got != 1 {
		t.Fatalf("snapshot still holds %d mappings, want 1", got)
	}

	// The same thread context accessed the mapping before, so its TLB was
	// warm; the epoch bump must prevent a stale hit.
	_, f := s.Load64(ctx, p)
	if f == nil || f.Kind != mte.FaultUnmapped {
		t.Fatalf("post-unmap load: got fault %v, want SEGV_MAPERR", f)
	}

	// Retained handle degrades to errors, never touches released storage.
	if m.Size() != 0 {
		t.Fatalf("released mapping still reports size %d", m.Size())
	}
	if err := m.ReadRaw(m.Base(), make([]byte, 8)); err == nil {
		t.Fatal("ReadRaw on released mapping succeeded")
	}
	if _, err := m.SetTagRange(m.Base(), m.Base()+16, 3); err == nil {
		t.Fatal("SetTagRange on released mapping succeeded")
	}
	if m.Tagged() {
		t.Fatal("released mapping still reports tag storage")
	}

	// Unrelated mappings keep working.
	if f := s.Store64(ctx, mte.MakePtr(keep.Base(), 0), 1); f != nil {
		t.Fatalf("store to surviving mapping faulted: %v", f)
	}

	// Double unmap is an error, not corruption.
	if err := s.Unmap(m); err == nil {
		t.Fatal("double Unmap succeeded")
	}
}

// Unmap must drop the mapping's materialized tag pages and its directory
// from the resident-byte accounting. Pooled VMs unmap their heaps only when
// a session retires (recycling a clean session calls heap.Reset instead),
// and a space's gauges must not keep counting storage no mapping owns.
func TestUnmapReleasesTagPages(t *testing.T) {
	s := NewSpace()
	m, err := s.Map("victim", 4*uint64(tagPageSpan), ProtRead|ProtWrite|ProtMTE)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize three pages with partial paints.
	for i := 0; i < 3; i++ {
		base := m.Base() + mte.Addr(i)*tagPageSpan + 5*mte.GranuleSize
		if _, err := m.SetTagRange(base, base+2*mte.GranuleSize, mte.Tag(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.TagStats()
	if before.PagesResident != 3 {
		t.Fatalf("PagesResident = %d before unmap, want 3", before.PagesResident)
	}
	if want := uint64(3*tagPageBytes + 4*tagDirEntryBytes); before.BytesResident != want {
		t.Fatalf("BytesResident = %d before unmap, want %d", before.BytesResident, want)
	}

	if err := s.Unmap(m); err != nil {
		t.Fatal(err)
	}
	after := s.TagStats()
	if after.PagesResident != 0 || after.DirBytes != 0 || after.BytesResident != 0 || after.BytesFlatEquiv != 0 {
		t.Fatalf("accounting after unmapping the only MTE mapping: %+v, want no resident pages, directory, resident or flat bytes", after)
	}
	// The monotonic counters keep their history.
	if after.PagesMaterialized != before.PagesMaterialized || after.ZeroDedupHits != before.ZeroDedupHits {
		t.Fatalf("monotonic counters moved at unmap: %+v -> %+v", before, after)
	}
}
