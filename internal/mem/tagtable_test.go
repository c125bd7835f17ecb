package mem

import (
	"testing"

	"mte4jni/internal/mte"
)

// tagPageSpan is the data span one tag page covers (16 KiB).
const tagPageSpan = mte.Addr(tagPageGranules) * mte.GranuleSize

// mapTagged creates a fresh space with one n-byte MTE mapping.
func mapTagged(t *testing.T, n uint64) (*Space, *Mapping) {
	t.Helper()
	s := NewSpace()
	m, err := s.Map("tt", n, ProtRead|ProtWrite|ProtMTE)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return s, m
}

// Map builds the tag directory eagerly, as it builds the data directory:
// one 8-byte entry per tag page, every entry shared with the canonical zero
// page, and no page materialized.
func TestTagTableFreshMappingAccounting(t *testing.T) {
	s, m := mapTagged(t, 16*uint64(tagPageSpan)) // 16 tag pages
	st := s.TagStats()
	if st.PagesResident != 0 || st.PagesMaterialized != 0 || st.PagesUniform != 0 {
		t.Fatalf("fresh mapping materialized pages: %+v", st)
	}
	if st.ZeroDedupHits != 16 {
		t.Fatalf("ZeroDedupHits = %d, want 16 (one per directory entry)", st.ZeroDedupHits)
	}
	if want := uint64(16 * tagDirEntryBytes); st.DirBytes != want || st.BytesResident != want {
		t.Fatalf("DirBytes = %d, BytesResident = %d, want %d/%d", st.DirBytes, st.BytesResident, want, want)
	}
	// Flat equivalent: one byte per granule.
	if want := 16 * uint64(tagPageSpan) / mte.GranuleSize; st.BytesFlatEquiv != want {
		t.Fatalf("BytesFlatEquiv = %d, want %d", st.BytesFlatEquiv, want)
	}
	for a := m.Base(); a < m.End(); a += tagPageSpan {
		if tag := m.TagAt(a); tag != 0 {
			t.Fatalf("fresh granule at %v tagged %v", a, tag)
		}
	}
	// An untagged mapping gets no directory at all.
	if _, err := s.Map("plain", 16*uint64(tagPageSpan), ProtRead|ProtWrite); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if after := s.TagStats(); after.ZeroDedupHits != st.ZeroDedupHits || after.DirBytes != st.DirBytes || after.BytesFlatEquiv != st.BytesFlatEquiv {
		t.Fatalf("untagged mapping moved the tag accounting: %+v -> %+v", st, after)
	}
}

func TestTagTablePartialRangeMaterializes(t *testing.T) {
	s, m := mapTagged(t, 4*uint64(tagPageSpan))
	// Tag 4 granules in the middle of page 1: materializes exactly one page.
	begin := m.Base() + tagPageSpan + 3*mte.GranuleSize
	end := begin + 4*mte.GranuleSize
	if _, err := m.SetTagRange(begin, end, 0x7); err != nil {
		t.Fatalf("SetTagRange: %v", err)
	}
	st := s.TagStats()
	if st.PagesMaterialized != 1 || st.PagesResident != 1 {
		t.Fatalf("materialized/resident = %d/%d, want 1/1", st.PagesMaterialized, st.PagesResident)
	}
	if got := m.TagAt(begin); got != 0x7 {
		t.Fatalf("tag at begin = %v, want 7", got)
	}
	if got := m.TagAt(begin - mte.GranuleSize); got != 0 {
		t.Fatalf("granule before range = %v, want background 0", got)
	}
	if got := m.TagAt(end); got != 0 {
		t.Fatalf("granule after range = %v, want background 0", got)
	}
	// Neighbouring pages stay canonical zero.
	if got := m.TagAt(m.Base()); got != 0 {
		t.Fatalf("page 0 disturbed: %v", got)
	}
}

func TestTagTableFullPageBecomesUniform(t *testing.T) {
	s, m := mapTagged(t, 4*uint64(tagPageSpan))
	// Retag pages 1 and 2 entirely: two uniform swaps, nothing materialized.
	if _, err := m.SetTagRange(m.Base()+tagPageSpan, m.Base()+3*tagPageSpan, 0x5); err != nil {
		t.Fatalf("SetTagRange: %v", err)
	}
	st := s.TagStats()
	if st.PagesUniform != 2 {
		t.Fatalf("PagesUniform = %d, want 2", st.PagesUniform)
	}
	if st.PagesMaterialized != 0 || st.PagesResident != 0 {
		t.Fatalf("uniform retag materialized pages: %+v", st)
	}
	for a := m.Base() + tagPageSpan; a < m.Base()+3*tagPageSpan; a += mte.GranuleSize {
		if got := m.TagAt(a); got != 0x5 {
			t.Fatalf("tag at %v = %v, want 5", a, got)
		}
	}
}

func TestTagTableRetagToUniformReleasesPage(t *testing.T) {
	s, m := mapTagged(t, uint64(tagPageSpan))
	// Materialize page 0 with a partial paint, then repaint the whole page:
	// the private page must leave the resident count.
	if _, err := m.SetTagRange(m.Base(), m.Base()+mte.GranuleSize, 0x3); err != nil {
		t.Fatalf("partial SetTagRange: %v", err)
	}
	if st := s.TagStats(); st.PagesResident != 1 {
		t.Fatalf("PagesResident = %d after partial paint, want 1", st.PagesResident)
	}
	if _, err := m.SetTagRange(m.Base(), m.Base()+tagPageSpan, 0x9); err != nil {
		t.Fatalf("uniform SetTagRange: %v", err)
	}
	st := s.TagStats()
	if st.PagesResident != 0 {
		t.Fatalf("PagesResident = %d after uniform repaint, want 0", st.PagesResident)
	}
	// Re-materialize page 0 itself (now uniform 9) with a one-granule paint:
	// the new page's background must be 9, not the 0 of a fresh page or
	// the bytes of the displaced 0x3-painted page.
	if _, err := m.SetTagRange(m.Base(), m.Base()+mte.GranuleSize, 0x2); err != nil {
		t.Fatalf("re-materializing SetTagRange: %v", err)
	}
	st = s.TagStats()
	if st.PagesMaterialized != 2 || st.PagesResident != 1 {
		t.Fatalf("materialized/resident = %d/%d, want 2/1", st.PagesMaterialized, st.PagesResident)
	}
	if got := m.TagAt(m.Base() + mte.GranuleSize); got != 0x9 {
		t.Fatalf("re-materialized page background = %v, want previous uniform 9", got)
	}
	if got := m.TagAt(m.Base()); got != 0x2 {
		t.Fatalf("painted granule = %v, want 2", got)
	}
}

func TestTagTableZeroRetagCountsDedup(t *testing.T) {
	s, m := mapTagged(t, uint64(tagPageSpan))
	if _, err := m.SetTagRange(m.Base(), m.Base()+tagPageSpan, 0x6); err != nil {
		t.Fatalf("SetTagRange: %v", err)
	}
	// Captured after Map, so the dedup credit for the fresh entries is
	// excluded from the delta.
	before := s.TagStats().ZeroDedupHits
	if _, err := m.ZeroTagRange(m.Base(), m.Base()+tagPageSpan); err != nil {
		t.Fatalf("ZeroTagRange: %v", err)
	}
	st := s.TagStats()
	if st.ZeroDedupHits != before+1 {
		t.Fatalf("ZeroDedupHits = %d, want %d (full-page zero retag)", st.ZeroDedupHits, before+1)
	}
	if got := m.TagAt(m.Base()); got != 0 {
		t.Fatalf("tag after zero retag = %v", got)
	}
}

func TestTagTableSpanCrossingPages(t *testing.T) {
	s, m := mapTagged(t, 4*uint64(tagPageSpan))
	// Paint a span from mid-page-0 through mid-page-3: two edge
	// materializations, two uniform swaps for the interior pages.
	begin := m.Base() + tagPageSpan/2
	end := m.Base() + 3*tagPageSpan + tagPageSpan/2
	n, err := m.SetTagRange(begin, end, 0xA)
	if err != nil {
		t.Fatalf("SetTagRange: %v", err)
	}
	if want := int((end - begin) / mte.GranuleSize); n != want {
		t.Fatalf("granules written = %d, want %d", n, want)
	}
	st := s.TagStats()
	if st.PagesMaterialized != 2 {
		t.Fatalf("PagesMaterialized = %d, want 2 (edge pages)", st.PagesMaterialized)
	}
	if st.PagesUniform != 2 {
		t.Fatalf("PagesUniform = %d, want 2 (interior pages)", st.PagesUniform)
	}
	// Boundary granules: inside the span everywhere, background outside.
	for _, a := range []mte.Addr{begin, m.Base() + tagPageSpan, m.Base() + 2*tagPageSpan - mte.GranuleSize, end - mte.GranuleSize} {
		if got := m.TagAt(a); got != 0xA {
			t.Fatalf("tag at %v = %v, want A", a, got)
		}
	}
	for _, a := range []mte.Addr{begin - mte.GranuleSize, end} {
		if got := m.TagAt(a); got != 0 {
			t.Fatalf("tag at %v = %v, want 0", a, got)
		}
	}
}

func TestTagBytesResidentTenXUnderFlat(t *testing.T) {
	// The headline property: a pool-sized mapping with a working set touching
	// a small fraction of its pages pays >=10x less tag storage than the flat
	// array did. 32 MiB heap (the pool default), ~64 KiB of scattered
	// partial-page tagging.
	s, m := mapTagged(t, 32<<20)
	for i := 0; i < 16; i++ {
		base := m.Base() + mte.Addr(i)*2*(1<<20) + 17*mte.GranuleSize
		if _, err := m.SetTagRange(base, base+4*mte.GranuleSize, mte.Tag(i&0xF)); err != nil {
			t.Fatalf("SetTagRange %d: %v", i, err)
		}
	}
	st := s.TagStats()
	if st.BytesFlatEquiv < 10*st.BytesResident {
		t.Fatalf("resident %d vs flat %d: reduction %.1fx < 10x",
			st.BytesResident, st.BytesFlatEquiv, float64(st.BytesFlatEquiv)/float64(st.BytesResident))
	}
}

func TestCanonicalPages(t *testing.T) {
	for b := uint8(0); b < 16; b++ {
		pg := canonical(b)
		if !isCanonical(pg) {
			t.Fatalf("canonical(%d) not recognised as canonical", b)
		}
		for i, got := range pg {
			if got != b {
				t.Fatalf("canonical(%d)[%d] = %d", b, i, got)
			}
		}
	}
	priv := new(tagPage)
	if isCanonical(priv) || isCanonical(nil) {
		t.Fatal("private zero page or nil misidentified as canonical")
	}
}
