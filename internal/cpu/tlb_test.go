package cpu

import (
	"sync"
	"testing"

	"mte4jni/internal/mte"
)

func TestTLBLookupInsertFlush(t *testing.T) {
	var tlb TLB
	if tlb.Lookup(100, 8) != nil {
		t.Fatal("empty TLB hit")
	}
	ref := new(int)
	tlb.Insert(100, 200, ref)
	if got := tlb.Lookup(100, 8); got == nil || got.Ref != any(ref) {
		t.Fatal("inserted entry not found with ref intact")
	}
	if got := tlb.Lookup(192, 8); got == nil || got.Ref != any(ref) {
		t.Fatal("last full access inside entry missed")
	}
	if tlb.Lookup(193, 8) != nil {
		t.Fatal("access crossing the entry end hit")
	}
	if tlb.Lookup(200, 0) != nil {
		t.Fatal("zero-size access at one-past-the-end hit; must miss like Resolve faults")
	}
	if got := tlb.Lookup(199, 0); got == nil || got.Ref != any(ref) {
		t.Fatal("zero-size access on the last byte missed")
	}
	tlb.Flush(7)
	if tlb.Lookup(100, 8) != nil {
		t.Fatal("entry survived a flush")
	}
	if tlb.Epoch != 7 {
		t.Fatalf("flush did not stamp epoch: %d", tlb.Epoch)
	}
	hits, misses := tlb.Stats()
	if hits != 3 || misses != 4 {
		t.Fatalf("stats = %d hits / %d misses across the flush, want 3/4", hits, misses)
	}
}

func TestTLBRoundRobinEviction(t *testing.T) {
	var tlb TLB
	refs := make([]*int, TLBSize+1)
	for i := range refs {
		refs[i] = new(int)
		tlb.Insert(uint64(i*1000), uint64(i*1000+100), refs[i])
	}
	// Entry 0 was evicted by the TLBSize'th insert; the rest survive.
	if tlb.Lookup(0, 8) != nil {
		t.Fatal("oldest entry not evicted")
	}
	for i := 1; i <= TLBSize; i++ {
		if got := tlb.Lookup(uint64(i*1000), 8); got == nil || got.Ref != any(refs[i]) {
			t.Fatalf("entry %d evicted out of round-robin order", i)
		}
	}
}

// TestPackedStateIndependence checks that TCO writes never disturb the check
// mode and vice versa, now that both live in one packed atomic word.
func TestPackedStateIndependence(t *testing.T) {
	c := New("t", mte.TCFSync)
	if !c.TCO() || c.CheckMode() != mte.TCFSync {
		t.Fatalf("initial state: TCO=%v mode=%v", c.TCO(), c.CheckMode())
	}
	c.SetTCO(false)
	if c.CheckMode() != mte.TCFSync {
		t.Fatal("SetTCO clobbered the check mode")
	}
	if !c.Checking() {
		t.Fatal("sync mode with TCO clear must check")
	}
	c.SetCheckMode(mte.TCFAsync)
	if c.TCO() {
		t.Fatal("SetCheckMode clobbered TCO")
	}
	c.SetCheckMode(mte.TCFNone)
	if c.Checking() {
		t.Fatal("mode none must not check")
	}
	c.SetTCO(true)
	c.SetCheckMode(mte.TCFSync)
	if c.Checking() {
		t.Fatal("TCO set must suppress checking")
	}
}

// TestPackedStateConcurrentWriters hammers the CAS loops from racing
// writers: every combination written must be one some writer intended —
// fields never tear into each other.
func TestPackedStateConcurrentWriters(t *testing.T) {
	c := New("t", mte.TCFNone)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if w%2 == 0 {
					c.SetTCO(i%2 == 0)
				} else {
					c.SetCheckMode(mte.CheckMode(i % 3))
				}
				if m := c.CheckMode(); m > mte.TCFAsync {
					t.Errorf("torn mode %v", m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
