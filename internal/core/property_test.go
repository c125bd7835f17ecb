package core

import (
	"testing"
	"testing/quick"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// TestPropertyShardIndexMatchesAlgorithm1: the shard selection must equal
// Algorithm 1's "begin/16 mod k" for any address and any k.
func TestPropertyShardIndexMatchesAlgorithm1(t *testing.T) {
	p, _, _ := setup(t, Config{})
	f := func(raw uint32) bool {
		begin := mte.Addr(raw &^ 0xF)
		sh := p.shardFor(begin)
		want := &p.shards[(uint64(begin)>>4)%uint64(p.cfg.HashTables)]
		return sh == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAcquireReleaseTransparent: for arrays of any size, an
// acquire/release cycle under MTE4JNI leaves data intact and tags clear,
// and the handed-out pointer always addresses the original payload.
func TestPropertyAcquireReleaseTransparent(t *testing.T) {
	p, th, v := setup(t, Config{})
	f := func(sizeRaw uint8, fill byte) bool {
		size := int(sizeRaw)%200 + 1
		arr, err := v.NewArray(vm.KindByte, size)
		if err != nil {
			return true // heap pressure
		}
		raw := make([]byte, size)
		for i := range raw {
			raw[i] = fill
		}
		if err := v.JavaHeap.Mapping().WriteRaw(arr.DataBegin(), raw); err != nil {
			return false
		}
		ptr, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
		if err != nil {
			return false
		}
		if ptr.Addr() != arr.DataBegin() {
			return false
		}
		if err := p.Release(th, arr, ptr, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault); err != nil {
			return false
		}
		if v.JavaHeap.Mapping().TagAt(arr.DataBegin()) != 0 {
			return false
		}
		after := make([]byte, size)
		if err := v.JavaHeap.Mapping().ReadRaw(arr.DataBegin(), after); err != nil {
			return false
		}
		for i := range after {
			if after[i] != fill {
				return false
			}
		}
		return p.VerifyIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
