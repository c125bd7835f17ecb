package mem

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"mte4jni/internal/mte"
)

// TestPageBoundaryAccess runs every data-moving entry point across data-page
// boundaries against a flat shadow of the mapping: each case applies one
// operation to the paged mapping and the same operation to the shadow with
// Go's copy, and the whole mapping must read back equal to the shadow.
func TestPageBoundaryAccess(t *testing.T) {
	const pg = dataPageSize
	type env struct {
		s      *Space
		m, o   *Mapping // o is a second mapping for cross-mapping copies
		shadow []byte   // model of m
		oRaw   []byte   // o's contents (written once, never changed)
	}
	pattern := func(n, seed int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + seed)
		}
		return b
	}
	ptr := func(m *Mapping, off int) mte.Ptr { return mte.MakePtr(m.Base()+mte.Addr(off), 0) }
	cases := []struct {
		name string
		run  func(t *testing.T, e *env)
	}{
		{"CopyIn/CopyOut across one boundary", func(t *testing.T, e *env) {
			src := pattern(300, 1)
			if f := e.s.CopyIn(checkingCtx(mte.TCFNone), ptr(e.m, pg-100), src); f != nil {
				t.Fatal(f)
			}
			copy(e.shadow[pg-100:], src)
			got := make([]byte, 300)
			if f := e.s.CopyOut(checkingCtx(mte.TCFNone), ptr(e.m, pg-100), got); f != nil {
				t.Fatal(f)
			}
			if !bytes.Equal(got, src) {
				t.Fatal("CopyOut across a page boundary read back different bytes")
			}
		}},
		{"CopyIn spanning three pages", func(t *testing.T, e *env) {
			src := pattern(2*pg+10, 2)
			if f := e.s.CopyInUnguarded(checkingCtx(mte.TCFNone), ptr(e.m, pg-5), src); f != nil {
				t.Fatal(f)
			}
			copy(e.shadow[pg-5:], src)
		}},
		{"Move forward overlap across a boundary", func(t *testing.T, e *env) {
			if f := e.s.Move(checkingCtx(mte.TCFNone), ptr(e.m, pg-4000+8), ptr(e.m, pg-4000), 9000); f != nil {
				t.Fatal(f)
			}
			copy(e.shadow[pg-4000+8:pg-4000+8+9000], e.shadow[pg-4000:])
		}},
		{"Move backward overlap across a boundary", func(t *testing.T, e *env) {
			if f := e.s.Move(checkingCtx(mte.TCFNone), ptr(e.m, pg-4000), ptr(e.m, pg-4000+8), 9000); f != nil {
				t.Fatal(f)
			}
			copy(e.shadow[pg-4000:pg-4000+9000], e.shadow[pg-4000+8:])
		}},
		{"Move forward overlap over three pages, unaligned shift", func(t *testing.T, e *env) {
			if f := e.s.MoveUnguarded(checkingCtx(mte.TCFNone), ptr(e.m, 1003), ptr(e.m, 10), 2*pg+500); f != nil {
				t.Fatal(f)
			}
			copy(e.shadow[1003:1003+2*pg+500], e.shadow[10:])
		}},
		{"Move between disjoint ranges on different page offsets", func(t *testing.T, e *env) {
			if f := e.s.Move(checkingCtx(mte.TCFNone), ptr(e.m, 2*pg-77), ptr(e.m, 100), pg+200); f != nil {
				t.Fatal(f)
			}
			copy(e.shadow[2*pg-77:2*pg-77+pg+200], e.shadow[100:])
		}},
		{"unaligned Load64/Store64 straddling two pages", func(t *testing.T, e *env) {
			ctx := checkingCtx(mte.TCFNone)
			for _, off := range []int{pg - 7, pg - 3, pg - 1, 2*pg - 4} {
				v := uint64(0x0102030405060708) * uint64(off)
				if f := e.s.Store64(ctx, ptr(e.m, off), v); f != nil {
					t.Fatal(f)
				}
				binary.LittleEndian.PutUint64(e.shadow[off:], v)
				if got, f := e.s.Load64(ctx, ptr(e.m, off)); f != nil || got != v {
					t.Fatalf("Load64 at page offset %d = %#x, %v; want %#x", off%pg, got, f, v)
				}
				if got, f := e.s.Load64Unguarded(ctx, ptr(e.m, off)); f != nil || got != v {
					t.Fatalf("Load64Unguarded at page offset %d = %#x, %v; want %#x", off%pg, got, f, v)
				}
			}
			if f := e.s.Store32Unguarded(ctx, ptr(e.m, pg-2), 0xAABBCCDD); f != nil {
				t.Fatal(f)
			}
			binary.LittleEndian.PutUint32(e.shadow[pg-2:], 0xAABBCCDD)
			if f := e.s.Store16(ctx, ptr(e.m, 3*pg-1), 0xEEFF); f != nil {
				t.Fatal(f)
			}
			binary.LittleEndian.PutUint16(e.shadow[3*pg-1:], 0xEEFF)
		}},
		{"WriteRaw/ReadRaw across a boundary", func(t *testing.T, e *env) {
			src := pattern(pg+64, 3)
			if err := e.m.WriteRaw(e.m.Base()+2*pg-32, src); err != nil {
				t.Fatal(err)
			}
			copy(e.shadow[2*pg-32:], src)
		}},
		{"CopyRaw from another mapping across boundaries on both sides", func(t *testing.T, e *env) {
			if err := e.m.CopyRaw(e.m.Base()+pg-1000, e.o, e.o.Base()+pg-3000, 5000); err != nil {
				t.Fatal(err)
			}
			copy(e.shadow[pg-1000:pg-1000+5000], e.oRaw[pg-3000:])
		}},
		{"CopyRaw within one mapping is memmove", func(t *testing.T, e *env) {
			if err := e.m.CopyRaw(e.m.Base()+pg-50, e.m, e.m.Base()+pg-60, 200); err != nil {
				t.Fatal(err)
			}
			copy(e.shadow[pg-50:pg-50+200], e.shadow[pg-60:])
		}},
		{"ZeroRaw across a boundary", func(t *testing.T, e *env) {
			if err := e.m.ZeroRaw(e.m.Base()+pg-10, pg+20); err != nil {
				t.Fatal(err)
			}
			clear(e.shadow[pg-10 : 2*pg+10])
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSpace()
			m, err := s.Map("paged", 4*pg, ProtRead|ProtWrite)
			if err != nil {
				t.Fatal(err)
			}
			o, err := s.Map("other", 4*pg, ProtRead|ProtWrite)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{s: s, m: m, o: o, shadow: pattern(4*pg, 9), oRaw: pattern(4*pg, 5)}
			// Start from a fully written mapping except its last page, which
			// stays on the zero page so the cases also cross into untouched
			// memory.
			clear(e.shadow[3*pg:])
			if err := m.WriteRaw(m.Base(), e.shadow[:3*pg]); err != nil {
				t.Fatal(err)
			}
			if err := o.WriteRaw(o.Base(), e.oRaw); err != nil {
				t.Fatal(err)
			}
			c.run(t, e)
			got := make([]byte, m.Size())
			if err := m.ReadRaw(m.Base(), got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != e.shadow[i] {
					t.Fatalf("byte %d (page %d offset %d) = %#x, shadow %#x", i, i/pg, i%pg, got[i], e.shadow[i])
				}
			}
		})
	}
}

// TestDataPagesLazy pins the data plane's laziness: mapping, reading and
// zeroing untouched memory materialize nothing, the first store to a page
// materializes exactly that page, and unmapping returns the gauges.
func TestDataPagesLazy(t *testing.T) {
	s := NewSpace()
	m, err := s.Map("lazy", 8*dataPageSize, ProtRead|ProtWrite|ProtMTE)
	if err != nil {
		t.Fatal(err)
	}
	dir := uint64(8 * dataDirEntryBytes)
	st := s.TagStats()
	if st.DataPagesMaterialized != 0 || st.DataBytesResident != dir || st.DataBytesMapped != 8*dataPageSize {
		t.Fatalf("fresh mapping: %+v", st)
	}
	buf := make([]byte, 3*dataPageSize)
	if err := m.ReadRaw(m.Base(), buf); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroRaw(m.Base(), int(m.Size())); err != nil {
		t.Fatal(err)
	}
	ctx := checkingCtx(mte.TCFNone)
	if v, f := s.Load64(ctx, mte.MakePtr(m.Base()+5*dataPageSize, 0)); f != nil || v != 0 {
		t.Fatalf("untouched Load64 = %#x, %v", v, f)
	}
	if st := s.TagStats(); st.DataPagesMaterialized != 0 {
		t.Fatalf("reads and zeroing materialized %d pages", st.DataPagesMaterialized)
	}
	if f := s.Store8(ctx, mte.MakePtr(m.Base()+2*dataPageSize+9, 0), 1); f != nil {
		t.Fatal(f)
	}
	if f := s.Store64(ctx, mte.MakePtr(m.Base()+2*dataPageSize+64, 0), 2); f != nil {
		t.Fatal(f)
	}
	st = s.TagStats()
	if st.DataPagesMaterialized != 1 || st.DataBytesResident != dataPageSize+dir {
		t.Fatalf("two stores to one page: %+v", st)
	}
	if err := s.Unmap(m); err != nil {
		t.Fatal(err)
	}
	st = s.TagStats()
	if st.DataPagesMaterialized != 1 || st.DataBytesResident != 0 || st.DataBytesMapped != 0 {
		t.Fatalf("after Unmap: %+v", st)
	}
}

// TestConcurrentFirstStores races first stores into untouched pages: each
// round, goroutines released together store distinct bytes into one page
// still on the zero page. Exactly one page must materialize per round, and
// every store must be visible afterwards — a store that lost the
// materialization race has to land in the winner's page. Run under -race.
func TestConcurrentFirstStores(t *testing.T) {
	const (
		rounds  = 64
		writers = 8
	)
	s := NewSpace()
	m, err := s.Map("race", rounds*dataPageSize, ProtRead|ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		page := m.Base() + mte.Addr(r*dataPageSize)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := checkingCtx(mte.TCFNone)
				<-start
				// Mix the entry points that can take the first store.
				a := page + mte.Addr(w*97)
				switch w % 3 {
				case 0:
					if f := s.Store8(ctx, mte.MakePtr(a, 0), byte(w+1)); f != nil {
						t.Error(f)
					}
				case 1:
					if err := m.WriteRaw(a, []byte{byte(w + 1)}); err != nil {
						t.Error(err)
					}
				default:
					if f := s.CopyIn(ctx, mte.MakePtr(a, 0), []byte{byte(w + 1)}); f != nil {
						t.Error(f)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		got := make([]byte, writers*97)
		if err := m.ReadRaw(page, got); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			if got[w*97] != byte(w+1) {
				t.Fatalf("round %d: writer %d's store was lost (read %#x)", r, w, got[w*97])
			}
		}
		if st := s.TagStats(); st.DataPagesMaterialized != uint64(r+1) {
			t.Fatalf("round %d: %d pages materialized, want %d", r, st.DataPagesMaterialized, r+1)
		}
	}
}
